(* The Simplified Lagrangian Receding Horizon resource manager (paper
   Section IV, flow chart of Figure 1) and its three variants (Section V).

   Clock-driven: every [delta_t] cycles the heuristic sweeps the machines in
   numerical order; for each machine that is not executing at the current
   cycle it builds the feasible candidate pool U, scores both versions of
   every pool member with the global objective, keeps the better version,
   orders the pool by score, and walks it planning exact start times; the
   first candidate whose planned start falls within the receding horizon
   [now, now + horizon] is committed.

   Variants:
   - V1 (SLRH-1): at most one assignment per machine per timestep.
   - V2 (SLRH-2): keeps walking the SAME pool, committing every candidate
     that still fits the horizon, without re-scoring or re-checking energy —
     the staleness is faithful to the paper and is precisely why SLRH-2
     rarely produces feasible complete mappings.
   - V3 (SLRH-3): like V2 but recreates and re-scores the pool after every
     assignment (children of the just-mapped subtask join immediately).

   "Simplified" = the Lagrangian weights stay constant for the whole run;
   Adaptive (this library) lifts that restriction as the paper's
   future-work extension. *)

open Agrid_workload
open Agrid_sched

type variant = V1 | V2 | V3

let variant_to_string = function V1 -> "SLRH-1" | V2 -> "SLRH-2" | V3 -> "SLRH-3"

(* The paper sweeps machines "in simple numerical order" each timestep;
   the alternatives are ablations on that design choice. *)
type machine_order =
  | Numerical  (** the paper's order *)
  | Fast_first  (** fast-class machines before slow ones *)
  | Most_energy_first  (** recompute each step by remaining battery *)

let machine_order_to_string = function
  | Numerical -> "numerical"
  | Fast_first -> "fast-first"
  | Most_energy_first -> "most-energy-first"

(* Where each pool comes from. Both sources rebuild every free
   machine's pool at every timestep, fill the same arena row and are
   walked by the same walk. [`Soa] (the default, and the only mode
   production code runs) fills it through memoised admission and batch
   scoring on the preallocated flat arrays of {!Pool.Flat}, so a
   timestep that commits nothing allocates nothing at all. [`Rescan] is
   the differential oracle: the paper-literal scalar filter and scorer,
   with no memo. *)
type mode = [ `Rescan | `Soa ]

let mode_to_string = function `Rescan -> "rescan" | `Soa -> "soa"

type params = {
  variant : variant;
  delta_t : int;  (** timestep in clock cycles (paper: 10) *)
  horizon : int;  (** receding horizon H in clock cycles (paper: 100) *)
  weights : Objective.weights;
  feas_mode : Feasibility.mode;
  mode : mode;
      (** [`Soa] (the default) runs pools on the flat preallocated arena;
          [`Rescan] is the naive rebuild kept as the differential oracle.
          Output is bit-identical in both. *)
  machine_order : machine_order;
  tracer : Trace.t option;
      (** record the paper's "historical record of all critical
          parameters" (one event per decision point) *)
  obs : Agrid_obs.Sink.t;
      (** telemetry sink for spans, counters and per-timestep snapshots;
          the default no-op sink is provably inert — the scheduler's
          output is bit-identical with or without it (tested) *)
  cancel : unit -> bool;
      (** cooperative cancellation, polled once per timestep before any
          work for that step: returning [true] ends the run where it
          stands (the scenario service's per-job wall-clock deadline).
          The default never cancels, leaving the loop bit-identical to
          the uncancellable one. *)
  adapt : Adapt.t option;
      (** online dual-ascent controller: when set, scoring reads ITS
          weights (seeded from [weights]) instead of the static ones, and
          the main loop runs a dual round at each commit epoch. [None]
          (the default) keeps the run bit-identical to the historical
          constant-weights scheduler. *)
}

let default_params ?(variant = V1) weights =
  {
    variant;
    delta_t = 10;
    horizon = 100;
    weights;
    feas_mode = Feasibility.Conservative;
    mode = `Soa;
    machine_order = Numerical;
    tracer = None;
    obs = Agrid_obs.Sink.noop;
    cancel = (fun () -> false);
    adapt = None;
  }

(* The weights scoring reads THIS timestep: the adaptive controller's
   current iterate when one is attached, the static params otherwise.
   Re-read at every use, so a dual round between timesteps changes the
   next scoring pass directly (the memoised energy bounds and the
   parent-bound store never read the weights). *)
let live_weights params =
  match params.adapt with None -> params.weights | Some a -> Adapt.weights a

(* Pool sizes live well under a hundred for every workload here; linear
   buckets of 4 keep the histogram readable. *)
let pool_size_bounds = Agrid_obs.Hist.linear_bounds ~lo:0. ~hi:64. ~n:16

(* Visit order of the machines for one timestep. Sorting keys are stable
   (ties fall back to the numerical order). *)
let machine_sequence params sched ~n_machines =
  match params.machine_order with
  | Numerical -> Array.init n_machines Fun.id
  | Fast_first ->
      let grid = Agrid_workload.Workload.grid (Schedule.workload sched) in
      let order = Array.init n_machines Fun.id in
      let key j =
        match (Agrid_platform.Grid.machine grid j).Agrid_platform.Machine.klass with
        | Agrid_platform.Machine.Fast -> 0
        | Agrid_platform.Machine.Slow -> 1
      in
      Array.sort (fun a b -> compare (key a, a) (key b, b)) order;
      order
  | Most_energy_first ->
      let order = Array.init n_machines Fun.id in
      Array.sort
        (fun a b ->
          compare
            (-.Schedule.energy_remaining sched a, a)
            (-.Schedule.energy_remaining sched b, b))
        order;
      order

type stats = {
  clock_steps : int;  (** timesteps executed *)
  pools_built : int;
  candidates_scored : int;
  plans_attempted : int;
  assignments : int;
}

type outcome = {
  schedule : Schedule.t;
  completed : bool;  (** all subtasks mapped before the clock passed tau *)
  final_clock : int;
  stats : stats;
  wall_seconds : float;  (** heuristic execution time (Figure 6 metric) *)
}

(* Core infeasibility verdicts carry [Version.t]; the ledger lives below
   core in the library stack, so its entries carry the version name. *)
let reject_of_infeasibility = function
  | Feasibility.Parent_unmapped { parent } ->
      Agrid_obs.Ledger.Parent_unmapped { parent }
  | Feasibility.Exec_energy { version; required; available } ->
      Agrid_obs.Ledger.Exec_energy
        { version = Version.to_string version; required; available }
  | Feasibility.Comm_energy { version; exec; comm; available } ->
      Agrid_obs.Ledger.Comm_energy
        { version = Version.to_string version; exec; comm; available }

let record_candidate led ~now ~machine task fate =
  Agrid_obs.Ledger.record led
    (Agrid_obs.Ledger.Candidate { clock = now; machine; task; fate })

(* ---- pools on the arena ----

   Each free machine's pool lives in its {!Pool.Flat} row: task ids in
   ready-list order, then best versions and scores per slot, then a sort
   permutation in the arena's shared [order] scratch. Telemetry, when
   the sink is enabled, follows one fixed span/counter/histogram
   sequence for both pool sources (score observations run in fill order,
   before sorting), so the differential suite compares sinks across
   modes directly.

   Closure discipline: every function below that runs on the
   steady-state path is a top-level function, every telemetry closure is
   built only under [Sink.enabled], recording work is guarded on the
   recorder being attached, and the walk recursions carry their state in
   arguments — so a timestep that rebuilds only empty pools performs
   zero heap allocation (pinned by test_alloc). *)

(* The one ledger-rejection emitter, shared by both pool sources, plus
   the eligibility filter. [row]'s first [n] slots hold the admitted pool
   in ready-list order. With a ledger attached, every unmapped task the
   filter turned away is recorded with its typed verdict (task order),
   then every admitted task [eligible] drops (pool order) as
   [Ineligible] — tasks the churn retry policy deferred or failed.
   Ineligible tasks are removed from the row in place, keeping order;
   returns the eligible count. *)
let keep_eligible params (row : Pool.Flat.row) ~eligible sched ~machine ~now n =
  let ledger = Agrid_obs.Sink.ledger params.obs in
  (match ledger with
  | None -> ()
  | Some led ->
      List.iter
        (fun (task, why) ->
          record_candidate led ~now ~machine task
            (Agrid_obs.Ledger.Rejected (reject_of_infeasibility why)))
        (Feasibility.explain_rejections ~mode:params.feas_mode sched ~machine));
  let tasks = row.Pool.Flat.tasks in
  let kept = ref 0 in
  for k = 0 to n - 1 do
    let task = tasks.(k) in
    if eligible task then begin
      tasks.(!kept) <- task;
      incr kept
    end
    else
      match ledger with
      | None -> ()
      | Some led ->
          record_candidate led ~now ~machine task
            (Agrid_obs.Ledger.Rejected Agrid_obs.Ledger.Ineligible)
  done;
  !kept

(* Build machine's pool into its arena row: the memoised batch filter
   ([`Soa]) or the scalar {!Feasibility.candidate_pool} ([`Rescan]),
   then the shared rejection emitter. *)
let build params (arena : Pool.Flat.t) ~eligible sched ~machine ~now =
  let obs = params.obs in
  let row = arena.Pool.Flat.rows.(machine) in
  let admitted =
    match params.mode with
    | `Soa ->
        Feasibility.filter_into ~obs arena.Pool.Flat.memo sched ~machine
          row.Pool.Flat.tasks
    | `Rescan ->
        Pool.Flat.fill_from_list row
          (Feasibility.candidate_pool ~mode:params.feas_mode ~obs sched ~machine);
        row.Pool.Flat.count
  in
  row.Pool.Flat.count <- keep_eligible params row ~eligible sched ~machine ~now admitted

(* Best version and score for the row's first [n] slots: one
   {!Objective.score_into} batch pass ([`Soa]) or one scalar
   {!Objective.best_version} per candidate ([`Rescan]). *)
let score params (arena : Pool.Flat.t) sched ~machine ~now n =
  let row = arena.Pool.Flat.rows.(machine) in
  let w = live_weights params in
  match params.mode with
  | `Soa ->
      Objective.score_into w sched ~machine ~now ~n ~tasks:row.Pool.Flat.tasks
        ~bound_ready:arena.Pool.Flat.bound_ready
        ~bound_comm:arena.Pool.Flat.bound_comm
        ~bound_known:arena.Pool.Flat.bound_known ~versions:row.Pool.Flat.versions
        ~scores:row.Pool.Flat.scores
  | `Rescan ->
      for k = 0 to n - 1 do
        let version, s =
          Objective.best_version w sched ~task:row.Pool.Flat.tasks.(k) ~machine ~now
        in
        row.Pool.Flat.versions.(k) <- version;
        row.Pool.Flat.scores.(k) <- s
      done

(* Walk order: decreasing score, ties on ascending task id — the
   allocation-free insertion sort ([`Soa]) or [List.sort] ([`Rescan]). *)
let sort params (arena : Pool.Flat.t) ~machine n =
  let row = arena.Pool.Flat.rows.(machine) in
  match params.mode with
  | `Soa -> Pool.Flat.sort arena row n
  | `Rescan ->
      let scores = row.Pool.Flat.scores and tasks = row.Pool.Flat.tasks in
      List.init n Fun.id
      |> List.sort (fun a b ->
             let c = Float.compare scores.(b) scores.(a) in
             if c <> 0 then c else compare tasks.(a) tasks.(b))
      |> List.iteri (fun i k -> arena.Pool.Flat.order.(i) <- k)

(* Build, score and sort machine's pool. Returns the pool size; the walk
   order is in [arena.order]. *)
let scored_pool params (arena : Pool.Flat.t) ~eligible sched ~machine ~now
    stats_candidates =
  let obs = params.obs in
  let enabled = Agrid_obs.Sink.enabled obs in
  let row = arena.Pool.Flat.rows.(machine) in
  if enabled then
    Agrid_obs.Sink.span obs "slrh/pool_build" (fun () ->
        build params arena ~eligible sched ~machine ~now)
  else build params arena ~eligible sched ~machine ~now;
  let n = row.Pool.Flat.count in
  stats_candidates := !stats_candidates + n;
  if enabled then begin
    (* timed directly rather than through [Sink.span]: the batch pass is
       short enough that the span wrapper's closures would dominate the
       measurement *)
    let t0 = Agrid_obs.Clock.monotonic_ns () in
    score params arena sched ~machine ~now n;
    Agrid_obs.Sink.record_span obs "slrh/score"
      (Agrid_obs.Clock.elapsed_seconds ~since:t0);
    Agrid_obs.Sink.observe obs "slrh/pool_size" ~bounds:pool_size_bounds
      (float_of_int n);
    Agrid_obs.Sink.add obs "objective/version_evals" (2 * n);
    let scores = row.Pool.Flat.scores in
    for k = 0 to n - 1 do
      Agrid_obs.Sink.observe obs "slrh/score_value" ~bounds:Objective.score_bounds
        scores.(k)
    done;
    Agrid_obs.Sink.max_gauge obs "slrh/pool_hwm" (float_of_int n)
  end
  else score params arena sched ~machine ~now n;
  sort params arena ~machine n;
  n

(* ---- the walk ----

   Walk the sort order, plan each unmapped candidate, commit the first
   whose start fits the horizon; returns the committed task id or -1.
   Already-mapped slots are SLRH-2's drained commits: its stale pool
   keeps them in the row, so [seen_mapped] counts them and every pool
   size and rank the walk reports is taken over the unmapped slots only
   — the pool as the paper's list-based walk sees it, with committed
   tasks dropped.

   Recording is a [None]-checked step of the same walk: with a tracer,
   one decision-point event per walk (assignment, empty pool or horizon
   miss); with a ledger, a [Horizon_missed] fate per walked-but-late
   candidate, and on commit a [Commit] entry with the score
   decomposition and runner-up margin plus an [Outscored] fate for every
   candidate left unwalked. *)

(* The unmapped slots of machine's pool in walk order, as
   (task, version, score) — the recorded view of the pool. Allocates;
   recorder-attached runs only. *)
let pool_view (arena : Pool.Flat.t) sched ~machine n =
  let row = arena.Pool.Flat.rows.(machine) in
  let rec build i acc =
    if i < 0 then acc
    else
      let k = arena.Pool.Flat.order.(i) in
      let task = row.Pool.Flat.tasks.(k) in
      build (i - 1)
        (if Schedule.is_mapped sched task then acc
         else (task, row.Pool.Flat.versions.(k), row.Pool.Flat.scores.(k)) :: acc)
  in
  build (n - 1) []

(* Commit [plan] with the ledger and trace records of the commit. The
   score decomposition is recomputed against the pre-commit schedule, so
   for SLRH-2's stale pools the recorded terms are the fresh truth even
   when the stale pool score differs. *)
let commit_recorded params arena sched ~machine ~now n ~rank ~task ~version
    ~score (plan : Schedule.plan) =
  let view = pool_view arena sched ~machine n in
  let pool_size = List.length view in
  (match Agrid_obs.Sink.ledger params.obs with
  | None -> ()
  | Some led ->
      let parts =
        Objective.estimate_parts (live_weights params) sched ~task ~version
          ~machine ~now
      in
      let runner_up =
        List.find_map (fun (t, _, s) -> if t <> task then Some (t, s) else None) view
      in
      Agrid_obs.Ledger.record led
        (Agrid_obs.Ledger.Commit
           {
             clock = now;
             machine;
             task;
             version = Version.to_string version;
             start = plan.Schedule.pl_start;
             stop = plan.Schedule.pl_stop;
             score = parts.Objective.total;
             alpha_term = parts.Objective.t100_term;
             beta_term = parts.Objective.energy_term;
             gamma_term = parts.Objective.aet_term;
             pool_size;
             runner_up;
           });
      List.iteri
        (fun r (t, v, s) ->
          if r > rank then
            record_candidate led ~now ~machine t
              (Agrid_obs.Ledger.Outscored
                 { version = Version.to_string v; score = s; rank = r }))
        view);
  Schedule.commit sched plan;
  match params.tracer with
  | None -> ()
  | Some t ->
      Trace.record t ~clock:now ~machine
        (Trace.Assigned
           {
             task;
             version;
             start = plan.Schedule.pl_start;
             stop = plan.Schedule.pl_stop;
             score;
             pool_size;
             energy_remaining = Schedule.energy_remaining sched machine;
           })

let rec walk params (arena : Pool.Flat.t) sched ~machine ~now n i seen_mapped
    plans_attempted =
  let obs = params.obs in
  if i >= n then begin
    let pool_size = n - seen_mapped in
    if pool_size = 0 then begin
      Agrid_obs.Sink.incr obs "slrh/pool_empty";
      match params.tracer with
      | None -> ()
      | Some t -> Trace.record t ~clock:now ~machine Trace.Pool_empty
    end
    else begin
      Agrid_obs.Sink.incr obs "slrh/horizon_miss";
      match params.tracer with
      | None -> ()
      | Some t -> Trace.record t ~clock:now ~machine (Trace.Horizon_miss { pool_size })
    end;
    -1
  end
  else begin
    let row = arena.Pool.Flat.rows.(machine) in
    let k = arena.Pool.Flat.order.(i) in
    let task = row.Pool.Flat.tasks.(k) in
    if Schedule.is_mapped sched task then
      walk params arena sched ~machine ~now n (i + 1) (seen_mapped + 1)
        plans_attempted
    else begin
      incr plans_attempted;
      let version = row.Pool.Flat.versions.(k) in
      let plan =
        if Agrid_obs.Sink.enabled obs then
          Agrid_obs.Sink.span obs "slrh/plan" (fun () ->
              Schedule.plan sched ~task ~version ~machine ~not_before:now)
        else Schedule.plan sched ~task ~version ~machine ~not_before:now
      in
      let rank = i - seen_mapped in
      if plan.Schedule.pl_start <= now + params.horizon then begin
        if Option.is_none params.tracer && Option.is_none (Agrid_obs.Sink.ledger obs)
        then Schedule.commit sched plan
        else
          commit_recorded params arena sched ~machine ~now n ~rank ~task ~version
            ~score:row.Pool.Flat.scores.(k) plan;
        task
      end
      else begin
        (match Agrid_obs.Sink.ledger obs with
        | None -> ()
        | Some led ->
            record_candidate led ~now ~machine task
              (Agrid_obs.Ledger.Horizon_missed
                 {
                   version = Version.to_string version;
                   score = row.Pool.Flat.scores.(k);
                   rank;
                   planned_start = plan.Schedule.pl_start;
                 }));
        walk params arena sched ~machine ~now n (i + 1) seen_mapped plans_attempted
      end
    end
  end

(* SLRH-2: keep walking the SAME stale pool (no re-score, no re-sort)
   until a walk commits nothing. *)
let rec drain params arena sched ~machine ~now n plans_attempted assignments =
  if walk params arena sched ~machine ~now n 0 0 plans_attempted >= 0 then begin
    incr assignments;
    drain params arena sched ~machine ~now n plans_attempted assignments
  end

(* SLRH-3: rebuild and re-score after every commit. *)
let rec rebuild_after_commit params arena ~eligible sched ~machine ~now pools_built
    stats_candidates plans_attempted assignments =
  incr pools_built;
  let n = scored_pool params arena ~eligible sched ~machine ~now stats_candidates in
  if walk params arena sched ~machine ~now n 0 0 plans_attempted >= 0 then begin
    incr assignments;
    rebuild_after_commit params arena ~eligible sched ~machine ~now pools_built
      stats_candidates plans_attempted assignments
  end

let validate_params params =
  if params.delta_t <= 0 then invalid_arg "Slrh: delta_t must be positive";
  if params.horizon < 0 then invalid_arg "Slrh: horizon must be nonnegative"

(* Drive the clock loop over an existing schedule from [start_clock] until
   [until] (inclusive) or completion — each churn-engine phase resumes a
   partially executed schedule this way. [mask] marks the
   machines currently part of the grid (churn engine: down machines are
   skipped by the sweep but keep their indices); [eligible] filters the
   candidate pool (churn engine: deferred or permanently failed subtasks
   are not remappable). *)
let continue_run ?until ?(start_clock = 0) ?mask ?(eligible = fun _ -> true) params sched =
  validate_params params;
  if start_clock < 0 then invalid_arg "Slrh: negative start clock";
  let t0 = Agrid_obs.Clock.monotonic_ns () in
  let workload = Schedule.workload sched in
  let n_machines = Workload.n_machines workload in
  let up =
    match mask with
    | None -> fun _ -> true
    | Some a ->
        if Array.length a <> n_machines then
          invalid_arg "Slrh: mask length does not match machine count";
        fun j -> a.(j)
  in
  let tau = match until with Some u -> u | None -> Workload.tau workload in
  let obs = params.obs in
  let ledger = Agrid_obs.Sink.ledger obs in
  let arena = Pool.Flat.create ~feas_mode:params.feas_mode workload in
  let clock_steps = ref 0 in
  let pools_built = ref 0 in
  let candidates_scored = ref 0 in
  let plans_attempted = ref 0 in
  let assignments = ref 0 in
  (* snapshot deltas: pools/candidates since the previous sample *)
  let snap_pools = ref 0 in
  let snap_cands = ref 0 in
  let now = ref start_clock in
  (* Ledger idle entries answer "why did machine J sit idle at step K?":
     one per swept machine per timestep that ends with no assignment.
     [Busy]/[Down] are decided before the pool is even built; a machine
     that built a pool but committed nothing records that pool's
     emptiness ([Pool_empty] vs [Horizon_miss]). *)
  let record_idle ~machine ~cause =
    match ledger with
    | None -> ()
    | Some led ->
        Agrid_obs.Ledger.record led
          (Agrid_obs.Ledger.Idle { clock = !now; machine; cause })
  in
  (* Cooperative cancellation, polled once per timestep as part of the
     loop condition: once [params.cancel] fires the run ends where it
     stands (no partial sweep). The default cancel is [fun () -> false],
     so the uncancelled loop is bit-identical to the historical one. *)
  let cancelled = ref false in
  let keep_going () =
    if (not !cancelled) && params.cancel () then cancelled := true;
    not !cancelled
  in
  (* Numerical and fast-first visit orders read nothing that changes
     within a run, so their masked sequence is hoisted out of the clock
     loop (which also keeps steady-state timesteps allocation-free).
     Most-energy-first re-sorts by live battery each step. *)
  let static_sequence =
    match params.machine_order with
    | Numerical | Fast_first ->
        Some
          (Array.of_list
             (List.filter up
                (Array.to_list (machine_sequence params sched ~n_machines))))
    | Most_energy_first -> None
  in
  let machine = ref 0 in
  while keep_going () && (not (Schedule.all_mapped sched)) && !now <= tau do
    incr clock_steps;
    (match ledger with
    | None -> ()
    | Some _ ->
        for j = 0 to n_machines - 1 do
          if not (up j) then record_idle ~machine:j ~cause:Agrid_obs.Ledger.Down
        done);
    let sequence =
      match static_sequence with
      | Some s -> s
      | None ->
          Array.of_list
            (List.filter up
               (Array.to_list (machine_sequence params sched ~n_machines)))
    in
    let n_swept = Array.length sequence in
    machine := 0;
    while (not (Schedule.all_mapped sched)) && !machine < n_swept do
      let j = sequence.(!machine) in
      if Schedule.machine_free_at sched ~machine:j ~time:!now then begin
        let committed_before = !assignments in
        (match params.variant with
        | V1 ->
            incr pools_built;
            let n =
              scored_pool params arena ~eligible sched ~machine:j ~now:!now
                candidates_scored
            in
            if walk params arena sched ~machine:j ~now:!now n 0 0 plans_attempted >= 0
            then incr assignments
        | V2 ->
            incr pools_built;
            let n =
              scored_pool params arena ~eligible sched ~machine:j ~now:!now
                candidates_scored
            in
            drain params arena sched ~machine:j ~now:!now n plans_attempted assignments
        | V3 ->
            rebuild_after_commit params arena ~eligible sched ~machine:j ~now:!now
              pools_built candidates_scored plans_attempted assignments);
        (* nothing committed: exactly one pool was built, still in the row *)
        if !assignments = committed_before then
          record_idle ~machine:j
            ~cause:
              (if arena.Pool.Flat.rows.(j).Pool.Flat.count = 0 then
                 Agrid_obs.Ledger.Pool_empty
               else Agrid_obs.Ledger.Horizon_miss)
      end
      else record_idle ~machine:j ~cause:Agrid_obs.Ledger.Busy;
      incr machine
    done;
    (* after the sweep: one dual round if this timestep committed anything
       (Adapt skips timesteps that advanced nothing) *)
    (match params.adapt with
    | None -> ()
    | Some a -> Adapt.on_timestep a ~obs ~clock:!now sched);
    (* guarded on [enabled]: the [~make] closure captures eight locals, so
       merely constructing it would allocate every timestep on the noop
       sink — the zero-allocation budget forbids that *)
    let sampled =
      Agrid_obs.Sink.enabled obs
      && Agrid_obs.Sink.tick_snapshot obs ~make:(fun () ->
             {
               Agrid_obs.Snapshot.clock = !now;
               mapped = Schedule.n_mapped sched;
               t100 = Schedule.n_primary sched;
               pools_built = !pools_built - !snap_pools;
               pool_candidates = !candidates_scored - !snap_cands;
               energy = Array.init n_machines (Schedule.energy_remaining sched);
             })
    in
    if sampled then begin
      snap_pools := !pools_built;
      snap_cands := !candidates_scored
    end;
    if not (Schedule.all_mapped sched) then now := !now + params.delta_t
  done;
  let wall_seconds = Agrid_obs.Clock.elapsed_seconds ~since:t0 in
  if Agrid_obs.Sink.enabled obs then begin
    Agrid_obs.Sink.record_span obs "slrh/run" wall_seconds;
    Agrid_obs.Sink.add obs "slrh/clock_steps" !clock_steps;
    Agrid_obs.Sink.add obs "slrh/pools_built" !pools_built;
    Agrid_obs.Sink.add obs "slrh/candidates_scored" !candidates_scored;
    Agrid_obs.Sink.add obs "slrh/plans_attempted" !plans_attempted;
    Agrid_obs.Sink.add obs "slrh/assignments" !assignments;
    Agrid_obs.Sink.max_gauge obs "slrh/final_clock" (float_of_int !now)
  end;
  {
    schedule = sched;
    completed = Schedule.all_mapped sched;
    final_clock = !now;
    stats =
      {
        clock_steps = !clock_steps;
        pools_built = !pools_built;
        candidates_scored = !candidates_scored;
        plans_attempted = !plans_attempted;
        assignments = !assignments;
      };
    wall_seconds;
  }

let run params workload = continue_run params (Schedule.create workload)

let pp_stats ppf s =
  Fmt.pf ppf "steps=%d pools=%d scored=%d plans=%d assigned=%d" s.clock_steps
    s.pools_built s.candidates_scored s.plans_attempted s.assignments

let pp_outcome ppf o =
  Fmt.pf ppf "%a completed=%b clock=%d wall=%.3fs [%a]" Schedule.pp o.schedule
    o.completed o.final_clock o.wall_seconds pp_stats o.stats
