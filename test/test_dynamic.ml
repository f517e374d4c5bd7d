open Agrid_workload
open Agrid_sched
open Agrid_core
open Agrid_churn

let weights = Objective.make_weights ~alpha:0.4 ~beta:0.3
let params = Slrh.default_params weights

let workload () = Testlib.small_workload ~seed:11 ()

(* A permanent loss is the one-event trace [Leave@at]; the engine masks
   the machine and never renumbers the grid. *)
let run ?(wl = workload ()) ~at ~machine () =
  Dynamic.run_churn params wl [ { Event.at; kind = Event.Leave machine } ]

let leave_of o =
  match o.Engine.applied with
  | [ a ] -> a
  | l -> Alcotest.failf "expected one applied event, got %d" (List.length l)

let test_loss_completes_and_validates () =
  let lost = 3 in
  let o = run ~at:(Workload.tau (workload ()) / 4) ~machine:lost () in
  let r = Validate.check o.Engine.schedule in
  Alcotest.(check (list string)) "no violations" [] r.Validate.violations;
  Alcotest.(check bool) "complete" true r.Validate.complete;
  Alcotest.(check bool) "lost machine masked" false o.Engine.up.(lost);
  Array.iter
    (fun (p : Schedule.placement) ->
      if p.Schedule.machine = lost then
        Alcotest.failf "task %d placed on the lost machine" p.Schedule.task)
    (Schedule.placements o.Engine.schedule)

let test_survivors_plus_discarded_bounded () =
  let wl = workload () in
  let leave = leave_of (run ~wl ~at:(Workload.tau wl / 4) ~machine:3 ()) in
  Alcotest.(check bool) "mapped work partitioned" true
    (leave.Engine.ev_survivors + leave.Engine.ev_discarded <= Workload.n_tasks wl);
  Alcotest.(check bool) "some work survived" true (leave.Engine.ev_survivors > 0)

let test_survivors_finished_before_loss () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  let o = run ~wl ~at ~machine:3 () in
  (* carried-over placements finished before the loss, and the post-loss
     phase never starts work before [at]: start < at implies stop <= at *)
  Array.iter
    (fun (p : Schedule.placement) ->
      if p.Schedule.start < at && p.Schedule.stop > at then
        Alcotest.failf "task %d spans the loss instant (%d..%d vs %d)" p.Schedule.task
          p.Schedule.start p.Schedule.stop at)
    (Schedule.placements o.Engine.schedule)

let test_no_survivor_on_lost_machine () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  let lost = 1 in
  let o = run ~wl ~at ~machine:lost () in
  (* the pre-loss phase's schedule is frozen at the event: everything it
     placed on the lost machine must be among the discards *)
  let pre =
    match o.Engine.phases with
    | [ pre; _ ] -> pre.Engine.ph_outcome.Slrh.schedule
    | l -> Alcotest.failf "expected two phases, got %d" (List.length l)
  in
  let on_lost = ref 0 in
  Array.iter
    (fun (p : Schedule.placement) ->
      if p.Schedule.machine = lost then incr on_lost)
    (Schedule.placements pre);
  Alcotest.(check bool) "lost machine had work to lose" true (!on_lost > 0);
  Alcotest.(check bool) "discarded at least that" true
    ((leave_of o).Engine.ev_discarded >= !on_lost)

let test_ancestor_closure () =
  (* survivors form an ancestor-closed set: in the final schedule every
     placement has its parents placed, finishing no later than it starts *)
  let wl = workload () in
  let at = Workload.tau wl / 3 in
  let o = run ~wl ~at ~machine:1 () in
  let sched = o.Engine.schedule in
  let dag = Workload.dag o.Engine.workload in
  Array.iter
    (fun (p : Schedule.placement) ->
      Array.iter
        (fun (parent, _) ->
          match Schedule.placement sched parent with
          | None -> Alcotest.failf "task %d mapped, parent %d missing" p.Schedule.task parent
          | Some pp ->
              if pp.Schedule.stop > p.Schedule.start then
                Alcotest.failf "parent %d finishes after child %d starts" parent
                  p.Schedule.task)
        (Agrid_dag.Dag.parent_edges dag p.Schedule.task))
    (Schedule.placements sched)

let test_sunk_energy_accounting () =
  let wl = workload () in
  let o = run ~wl ~at:(Workload.tau wl / 4) ~machine:1 () in
  Alcotest.(check bool) "sunk energy nonnegative" true (o.Engine.sunk_energy >= 0.);
  (* TEC in the engine = validator TEC + sunk energy *)
  let r = Validate.check o.Engine.schedule in
  Testlib.close "engine tec = validated + sunk"
    (r.Validate.tec +. o.Engine.sunk_energy)
    (Schedule.tec o.Engine.schedule) ~eps:1e-6

let test_losing_fast_hurts_more () =
  let wl = workload () in
  let at = Workload.tau wl / 4 in
  let slow = run ~wl ~at ~machine:3 () in
  let fast = run ~wl ~at ~machine:1 () in
  let t100 o = Schedule.n_primary o.Engine.schedule in
  Alcotest.(check bool) "fast loss discards more" true
    ((leave_of fast).Engine.ev_discarded >= (leave_of slow).Engine.ev_discarded);
  Alcotest.(check bool) "fast loss lowers T100" true (t100 fast <= t100 slow)

let test_early_loss_approaches_static_case () =
  (* losing a machine at t=0 is a static run on the other three: no
     pre-loss phase, nothing to discard, no sunk energy *)
  let o = run ~at:0 ~machine:3 () in
  let leave = leave_of o in
  Alcotest.(check int) "one phase" 1 (List.length o.Engine.phases);
  Alcotest.(check int) "no survivors" 0 leave.Engine.ev_survivors;
  Alcotest.(check int) "no discards" 0 leave.Engine.ev_discarded;
  Testlib.close "no sunk energy" 0. o.Engine.sunk_energy

let test_validation_args () =
  Alcotest.check_raises "bad machine"
    (Invalid_argument "Churn.Event.validate: no such machine 9") (fun () ->
      ignore (run ~at:5 ~machine:9 ()));
  Alcotest.check_raises "bad time"
    (Invalid_argument "Churn.Event.validate: negative event time -1") (fun () ->
      ignore (run ~at:(-1) ~machine:0 ()))

let test_charge_energy () =
  let s = Schedule.create (Testlib.diamond_workload ()) in
  let before = Schedule.energy_remaining s 0 in
  Schedule.charge_energy s ~machine:0 5.;
  Testlib.close "remaining drops" (before -. 5.) (Schedule.energy_remaining s 0);
  Testlib.close "tec grows" 5. (Schedule.tec s);
  Alcotest.check_raises "negative" (Invalid_argument "Schedule.charge_energy: negative amount")
    (fun () -> Schedule.charge_energy s ~machine:0 (-1.))

(* ---- outage (loss + rejoin) ---- *)

let outage ?(wl = workload ()) ~machine ~from_ ~until_ () =
  Dynamic.run_churn params wl
    [ { Event.at = from_; kind = Event.Leave machine };
      { Event.at = until_; kind = Event.Rejoin machine } ]

let test_outage_completes_and_validates () =
  let wl = workload () in
  let tau = Workload.tau wl in
  let o = outage ~wl ~machine:1 ~from_:(tau / 10) ~until_:(tau / 2) () in
  Alcotest.(check bool) "completed" true o.Engine.completed;
  let r = Validate.check o.Engine.schedule in
  Alcotest.(check (list string)) "valid" [] r.Validate.violations;
  Alcotest.(check bool) "machine back" true o.Engine.up.(1)

let test_outage_beats_permanent_loss () =
  (* a temporary outage can never leave us with less capacity than losing
     the machine forever: T100 should be at least the permanent-loss T100 *)
  let wl = workload () in
  let tau = Workload.tau wl in
  let from_ = tau / 10 in
  let o = outage ~wl ~machine:1 ~from_ ~until_:(tau / 4) () in
  let loss = run ~wl ~at:from_ ~machine:1 () in
  Alcotest.(check bool) "outage >= permanent loss" true
    (Schedule.n_primary o.Engine.schedule >= Schedule.n_primary loss.Engine.schedule)

let test_outage_sunk_energy_nonnegative () =
  let wl = workload () in
  let tau = Workload.tau wl in
  let o = outage ~wl ~machine:0 ~from_:(tau / 8) ~until_:(tau / 3) () in
  Alcotest.(check bool) "sunk >= 0" true (o.Engine.sunk_energy >= 0.);
  (* ledger includes sunk: engine TEC = validator TEC + all sunk charges *)
  let r = Validate.check o.Engine.schedule in
  Alcotest.(check bool) "ledger >= validator tec" true
    (Schedule.tec o.Engine.schedule >= r.Validate.tec -. 1e-9)

let test_outage_validation () =
  Alcotest.check_raises "rejoin before leave"
    (Invalid_argument "Churn.Event.validate: rejoin@50: machine 0 is already present")
    (fun () -> ignore (outage ~machine:0 ~from_:100 ~until_:50 ()))

let test_continue_run_resumes () =
  (* splitting a run at an arbitrary clock must still complete *)
  let wl = workload () in
  let sched = Schedule.create wl in
  let mid = Workload.tau wl / 5 in
  let o1 = Slrh.continue_run ~until:mid params sched in
  Alcotest.(check bool) "phase 1 partial or complete" true
    (Schedule.n_mapped o1.Slrh.schedule <= Workload.n_tasks wl);
  let o2 = Slrh.continue_run ~start_clock:mid params sched in
  Alcotest.(check bool) "completed after resume" true o2.Slrh.completed;
  let r = Validate.check sched in
  Alcotest.(check (list string)) "valid" [] r.Validate.violations

let suites =
  [
    ( "dynamic",
      [
        Alcotest.test_case "loss completes+validates" `Quick test_loss_completes_and_validates;
        Alcotest.test_case "partition bounded" `Quick test_survivors_plus_discarded_bounded;
        Alcotest.test_case "no placement spans loss" `Quick test_survivors_finished_before_loss;
        Alcotest.test_case "lost machine work discarded" `Quick test_no_survivor_on_lost_machine;
        Alcotest.test_case "ancestor closure" `Quick test_ancestor_closure;
        Alcotest.test_case "sunk energy accounting" `Quick test_sunk_energy_accounting;
        Alcotest.test_case "fast loss hurts more" `Quick test_losing_fast_hurts_more;
        Alcotest.test_case "loss at t=0 is static" `Quick test_early_loss_approaches_static_case;
        Alcotest.test_case "argument validation" `Quick test_validation_args;
        Alcotest.test_case "charge_energy" `Quick test_charge_energy;
        Alcotest.test_case "outage completes+validates" `Quick
          test_outage_completes_and_validates;
        Alcotest.test_case "outage beats permanent loss" `Quick
          test_outage_beats_permanent_loss;
        Alcotest.test_case "outage sunk energy" `Quick test_outage_sunk_energy_nonnegative;
        Alcotest.test_case "outage validation" `Quick test_outage_validation;
        Alcotest.test_case "continue_run resumes" `Quick test_continue_run_resumes;
      ] );
  ]
