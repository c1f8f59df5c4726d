(* The host's speed, from a fixed kernel timed beside a round's work.

   The ledger runs on machines shared with other tenants. For seconds to
   minutes at a time, their load on the memory system slows every round by
   up to 40 %, with no CPU steal reported, so ten runs of the same code
   spread by 6-36 % of their median. A kernel of fixed work of the kind the
   layers do (allocation, and walks down a balanced tree) slows with the
   rounds when it is timed next to them: over 79-100 back-to-back study
   rounds, the kernel's mean time in a round correlated 0.90-0.95 with the
   round's wall when the kernel ran between the round's items, on the
   round's own domain. Timed only before and after a round it correlated
   0.4-0.6, so the samples are spread through the round.

   A run reports each round's wall scaled by [reference_ns] over the
   kernel's mean time in that round: seconds on a host where one sample
   takes [reference_ns]. The kernel's code is the ledger's own and does
   not change with the code under test. *)

module Int_map = Map.Make (Int)

let now = Trace.now_ns

(* One sample: eight 1000-key maps built by insertion. *)
let kernel () =
  for _ = 1 to 8 do
    let m = ref Int_map.empty in
    for i = 0 to 999 do
      m := Int_map.add ((i * 7919) land 4095) i !m
    done;
    ignore (Sys.opaque_identity !m)
  done

let time_kernel () =
  let t0 = now () in
  kernel ();
  now () - t0

(* The median time of one sample on a 2-vCPU x86-64 virtual machine whose
   neighbours were quiet. *)
let reference_ns = 1_000_000

(* At most one sample per [gap_ns] of work. A sample takes about 1 ms, so
   sampling costs a round about 5 % of its time. *)
let gap_ns = 20_000_000

(* Samples taken on the domain that drives a round, at the boundaries
   between its items. A sample pauses the round, so the round reads its
   clock through [clock], which leaves the pauses out. *)
type t = {
  mutable samples : int list;  (** ns, newest first *)
  mutable paused : int;
  mutable last : int;  (** when the last sample ended *)
}

let create () = { samples = []; paused = 0; last = now () }
let clock h = now () - h.paused

let sample h =
  let t0 = now () in
  if t0 - h.last >= gap_ns then begin
    h.samples <- time_kernel () :: h.samples;
    let t1 = now () in
    h.paused <- h.paused + (t1 - t0);
    h.last <- t1
  end

(* The samples of a round; one, taken now, when the round was too short
   for any. *)
let finish h = if h.samples = [] then [ time_kernel () ] else h.samples

(* The same kernel in a process of its own, for rounds that keep every
   core busy from several domains. A sample on the driving domain would
   compete with the round for a core, and did not follow the round's
   wall at all. [ledger.exe sampler] takes a sample, then waits [gap_ns]
   or until its standard input closes. When it closes, it prints each
   sample's duration in ns, one a line. A duration is the CPU time the
   sample took, so time spent waiting for a core, which the round's own
   load decides, does not count. A sample every 21 ms takes about 5 % of
   one core. *)
let cpu_ns () =
  let t = Unix.times () in
  Float.to_int ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

let sampler_main () =
  let samples = ref [] in
  let rec loop () =
    let c0 = cpu_ns () in
    kernel ();
    samples := (cpu_ns () - c0) :: !samples;
    match Unix.select [ Unix.stdin ] [] [] (Trace.seconds_of_ns gap_ns) with
    | [], _, _ -> loop ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  List.iter (Printf.printf "%d\n") !samples

(* Runs [f] beside a sampler process and returns its result with the
   samples. The sampler is stopped, and waited for, however [f] ends. *)
let with_sampler f =
  let ic, oc =
    Unix.open_process_args Sys.executable_name [| Sys.executable_name; "sampler" |]
  in
  let stop () =
    close_out oc;
    let lines = In_channel.input_lines ic in
    match Unix.close_process (ic, oc) with
    | Unix.WEXITED 0 -> List.filter_map int_of_string_opt lines
    | _ -> failwith "ledger: the host sampler failed"
  in
  match f () with
  | r -> (r, stop ())
  | exception e ->
      (try ignore (stop ()) with _ -> ());
      raise e

(* A round's wall scaled to the reference host. *)
let scale ~wall samples =
  let n = List.length samples in
  let mean = float_of_int (List.fold_left ( + ) 0 samples) /. float_of_int n in
  wall *. float_of_int reference_ns /. mean

(* The host's speed at launching a process, for the set-up samples, which
   launch one: one sample in a fresh sampler process, whose CPU time then
   includes faulting in the new process's minor heap. Timed beside the
   set-up samples, samples taken in the ledger's own process (or in the
   set-up process after its set-up, whose allocations had faulted in the
   heap already) left the median set-up of ten runs swinging by 15-30 %
   with the host. *)
let launch_sample () =
  match with_sampler ignore with
  | _, k :: _ -> k
  | _, [] -> failwith "ledger: the host sampler took no sample"

(* The median launch sample on the reference machine. *)
let launch_reference_ns = 2_750_000

(* A set-up sample, in seconds, scaled to the reference host. *)
let scale_launch setup k = setup *. float_of_int launch_reference_ns /. float_of_int k
