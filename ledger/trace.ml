(* Spans recorded from the ledger's own files, around calls into each
   layer's public functions. Spans stay in memory and are written as JSON
   lines when the run ends. Decision-level timings (the strategy's
   [choose], each execution) are far too many to keep one by one, so they
   are aggregated per cell as count, total and maximum. *)

module Strategy = Sct_explore.Strategy

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of_ns ns = float_of_int ns /. 1e9

type agg = { mutable count : int; mutable total : int; mutable max : int }

let agg () = { count = 0; total = 0; max = 0 }

let add a dt =
  a.count <- a.count + 1;
  a.total <- a.total + dt;
  if dt > a.max then a.max <- dt

(* What the timing strategy observed inside one cell. It is written only by
   the domain that runs the cell and read after the cell has returned, so
   it needs no synchronisation. *)
type decisions = {
  init : agg;  (** the strategy's [init], including PCT/SURW probe runs *)
  exec : agg;  (** [begin_run] to [on_terminal]: one execution *)
  choose : agg;  (** one scheduling decision; part of [exec] *)
  terminal : agg;  (** the strategy's [on_terminal] *)
  mutable forced : int;  (** decisions with exactly one enabled thread *)
  mutable run_start : int;
}

let decisions () =
  {
    init = agg ();
    exec = agg ();
    choose = agg ();
    terminal = agg ();
    forced = 0;
    run_start = 0;
  }

(* The timing wrapper: the same strategy, with its entry points timed. The
   driver sees identical choices, so the statistics are byte-identical to
   an untimed run. *)
let timed d (module S : Strategy.STRATEGY) : Strategy.t =
  (module struct
    include S

    let init () =
      let t0 = now_ns () in
      let st = S.init () in
      add d.init (now_ns () - t0);
      st

    let begin_run st =
      S.begin_run st;
      d.run_start <- now_ns ()

    let choose st (ctx : Sct_core.Runtime.ctx) =
      (match ctx.c_enabled with [ _ ] -> d.forced <- d.forced + 1 | _ -> ());
      let t0 = now_ns () in
      let t = S.choose st ctx in
      add d.choose (now_ns () - t0);
      t

    let on_terminal st res =
      let t0 = now_ns () in
      add d.exec (t0 - d.run_start);
      let v = S.on_terminal st res in
      add d.terminal (now_ns () - t0);
      v
  end)

type span = {
  id : int;
  parent : int;  (** [0] for a root span *)
  name : string;
      (** [round], [race], [cell], [program], [campaign], [slice],
          [resume] or [pass] *)
  cell : string;  (** the cell, program or pass the span belongs to *)
  start_ns : int;
  end_ns : int;
  decisions : decisions option;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 1 }

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let push t ~id ?(cell = "") ?decisions ~parent ~name start_ns end_ns =
  t.spans <- { id; parent; name; cell; start_ns; end_ns; decisions } :: t.spans

let record t ?cell ?decisions ~parent ~name start_ns end_ns =
  push t ~id:(fresh t) ?cell ?decisions ~parent ~name start_ns end_ns

(* Run [f] inside a span; [f] receives the span's id so that the spans it
   records name it as their parent. *)
let within t ?cell ~parent ~name f =
  let id = fresh t in
  let start_ns = now_ns () in
  let r = f id in
  push t ~id ?cell ~parent ~name start_ns (now_ns ());
  r

let spans t = List.rev t.spans
let duration s = s.end_ns - s.start_ns

let write t path =
  let line fields = Json.to_string (Json.Obj fields) in
  let num i = Json.Num (float_of_int i) in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (line
               [
                 ("id", num s.id);
                 ("parent", num s.parent);
                 ("name", Json.Str s.name);
                 ("cell", Json.Str s.cell);
                 ("start_ns", num s.start_ns);
                 ("end_ns", num s.end_ns);
               ]);
          output_char oc '\n';
          match s.decisions with
          | None -> ()
          | Some d ->
              List.iter
                (fun (name, a) ->
                  output_string oc
                    (line
                       [
                         ("parent", num s.id);
                         ("name", Json.Str name);
                         ("cell", Json.Str s.cell);
                         ("count", num a.count);
                         ("total_ns", num a.total);
                         ("max_ns", num a.max);
                       ]);
                  output_char oc '\n')
                [
                  ("init", d.init);
                  ("exec", d.exec);
                  ("choose", d.choose);
                  ("on_terminal", d.terminal);
                ];
              output_string oc
                (line
                   [
                     ("parent", num s.id);
                     ("name", Json.Str "forced");
                     ("cell", Json.Str s.cell);
                     ("count", num d.forced);
                   ]);
              output_char oc '\n')
        (spans t))
