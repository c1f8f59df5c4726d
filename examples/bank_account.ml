(* Writing your own systematic concurrency test.

   A tiny bank-account service with a seeded atomicity violation: the
   balance check and the withdrawal are separate critical sections, so two
   concurrent withdrawals can both pass the check and overdraw the account.
   The example walks the full study pipeline on it: race detection,
   exhaustive verification of the fixed version, and bounded search plus a
   readable witness trace for the buggy one.

     dune exec examples/bank_account.exe *)

open Sct_core

(* The account under test; [atomic_withdraw] selects the fixed variant. *)
let account_service ~atomic_withdraw () =
  let balance = Sct.Var.make ~name:"balance" 100 in
  let m = Sct.Mutex.create () in
  let overdraft = Sct.Var.make ~name:"overdraft" false in
  let withdraw amount =
    if atomic_withdraw then begin
      Sct.Mutex.lock m;
      let b = Sct.Var.read balance in
      if b >= amount then Sct.Var.write balance (b - amount);
      Sct.Mutex.unlock m
    end
    else begin
      (* BUG: check and act in separate critical sections *)
      Sct.Mutex.lock m;
      let b = Sct.Var.read balance in
      Sct.Mutex.unlock m;
      if b >= amount then begin
        Sct.Mutex.lock m;
        Sct.Var.write balance (Sct.Var.read balance - amount);
        Sct.Mutex.unlock m
      end
    end;
    if Sct.Var.read balance < 0 then Sct.Var.write overdraft true
  in
  let t1 = Sct.spawn (fun () -> withdraw 80) in
  let t2 = Sct.spawn (fun () -> withdraw 60) in
  Sct.join t1;
  Sct.join t2;
  Sct.check (not (Sct.Var.read overdraft)) "account overdrawn"

let explore name program =
  Printf.printf "--- %s ---\n" name;
  let detection = Sct_race.Promotion.detect ~runs:10 program in
  Printf.printf "racy locations: [%s]\n"
    (String.concat "; " detection.Sct_race.Promotion.racy);
  let promote = Sct_race.Promotion.promote detection in
  let idb =
    Sct_explore.Techniques.(
      run ~promote { default_options with limit = 100_000 } IDB program)
  in
  Format.printf "IDB: %a@." Sct_explore.Stats.pp idb;
  match idb.Sct_explore.Stats.first_bug with
  | None ->
      if idb.Sct_explore.Stats.complete then
        print_endline "VERIFIED: the whole schedule space is bug-free"
  | Some w ->
      Format.printf "COUNTEREXAMPLE (%d delays): %a@."
        w.Sct_explore.Stats.w_dc Outcome.pp_bug w.Sct_explore.Stats.w_bug;
      Format.printf "schedule: %a@." Schedule.pp w.Sct_explore.Stats.w_schedule

let () =
  explore "buggy withdraw (check-then-act)" (account_service ~atomic_withdraw:false);
  print_newline ();
  explore "fixed withdraw (atomic)" (account_service ~atomic_withdraw:true)
