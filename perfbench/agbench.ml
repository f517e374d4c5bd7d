(* The end-to-end benchmark: one workload per invocation, every input drawn
   from --seed, every output checked, every metric printed by name and
   unit, and one JSON result line last. Public entry points are timed from
   outside: Workload.build / Serialize.realize, Slrh.run, Maxmax.run,
   Dynamic.run_churn, Validate.check, the Codec and the `agrid serve`
   socket. README.md in this directory defines the workloads, the metrics
   and which layer metric should move which end-to-end one.

   Usage: agbench.exe --workload paper-batch|serve-paper|serve-small
            --seed N --seconds S --trace 0|1 [--agrid EXE] [--tmp DIR]
            [--smoke] [--git SHA] *)

module Spec = Agrid_workload.Spec
module Workload = Agrid_workload.Workload
module Serialize = Agrid_workload.Serialize
module Grid = Agrid_platform.Grid
module Slrh = Agrid_core.Slrh
module Objective = Agrid_core.Objective
module Dynamic = Agrid_core.Dynamic
module Maxmax = Agrid_baselines.Maxmax
module Validate = Agrid_sched.Validate
module Schedule = Agrid_sched.Schedule
module Event = Agrid_churn.Event
module Engine = Agrid_churn.Engine
module Sink = Agrid_obs.Sink
module Span = Agrid_obs.Span
module Json = Agrid_obs.Json
module Clock = Agrid_obs.Clock
module Job = Agrid_serve.Job
module Codec = Agrid_serve.Codec
module Rng = Agrid_prng.Splitmix64
module Dist = Agrid_prng.Dist
module M = Measure

let process_start = Unix.gettimeofday ()

(* ---- command line ---------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let agrid = ref "_build/default/bin/agrid.exe"
let tmp = ref ".perfbench_tmp"
let smoke = ref false
let git = ref "unknown"

let args =
  [
    ("--workload", Arg.Set_string workload, "NAME  paper-batch | serve-paper | serve-small");
    ("--seed", Arg.Set_int seed, "N  input seed");
    ("--seconds", Arg.Set_float seconds, "S  measured seconds");
    ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ("--agrid", Arg.Set_string agrid, "EXE  the built agrid binary (serve workloads)");
    ("--tmp", Arg.Set_string tmp, "DIR  directory for sockets and daemon logs");
    ("--smoke", Arg.Set smoke, " tiny inputs, for the self-test");
    ("--git", Arg.Set_string git, "SHA  source revision, echoed in the report");
  ]

(* At least this many operations per measured run, so that ten samples lie
   beyond the p90 tail (Measure.tail). *)
let min_ops = 100

(* ---- results and failures -------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let e2e = ref []
let layer = ref []
let extra = ref []

let put into ?(note = "") name unit_ value =
  into := { name; value; unit_; note } :: !into

let attempted = ref 0
let failed = ref 0
let messages = ref []

(* One operation's verdict: the problems found, empty when it is correct. *)
let judge what problems =
  incr attempted;
  if problems <> [] then begin
    incr failed;
    if List.length !messages < 20 then
      messages := Fmt.str "%s: %s" what (String.concat "; " problems) :: !messages
  end

(* ---- measuring in process -------------------------------------------- *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Gc.minor_words, not Gc.counters: on OCaml 5 the latter only sees the
   minor heap as of the last minor collection. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

type cost = { wall : float; cpu : float; words : float; minors : int; majors : int }

let costed f =
  let s0 = Gc.quick_stat () in
  let w0 = alloc_words () and c0 = cpu_s () in
  let t0 = Clock.monotonic_ns () in
  let r = f () in
  let wall = Clock.elapsed_seconds ~since:t0 in
  let c1 = cpu_s () and w1 = alloc_words () in
  let s1 = Gc.quick_stat () in
  ( r,
    {
      wall;
      cpu = c1 -. c0;
      words = w1 -. w0;
      minors = s1.Gc.minor_collections - s0.Gc.minor_collections;
      majors = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

let timed f =
  let t0 = Clock.monotonic_ns () in
  let r = f () in
  (r, Clock.elapsed_seconds ~since:t0)

(* Per-layer accumulators of the traced run: calls, their total cost and
   any extra per-call quantities (spans, counters). *)
type acc = {
  mutable calls : int;
  mutable total : cost;
  quantities : (string, float) Hashtbl.t;
}

let zero = { wall = 0.; cpu = 0.; words = 0.; minors = 0; majors = 0 }
let accs : (string, acc) Hashtbl.t = Hashtbl.create 16

let acc_of name =
  match Hashtbl.find_opt accs name with
  | Some a -> a
  | None ->
      let a = { calls = 0; total = zero; quantities = Hashtbl.create 8 } in
      Hashtbl.replace accs name a;
      a

let account name (c : cost) =
  let a = acc_of name in
  a.calls <- a.calls + 1;
  a.total <-
    {
      wall = a.total.wall +. c.wall;
      cpu = a.total.cpu +. c.cpu;
      words = a.total.words +. c.words;
      minors = a.total.minors + c.minors;
      majors = a.total.majors + c.majors;
    }

let add_quantity name q v =
  let a = acc_of name in
  Hashtbl.replace a.quantities q
    (v +. Option.value ~default:0. (Hashtbl.find_opt a.quantities q))

let per_call name f =
  match Hashtbl.find_opt accs name with
  | Some a when a.calls > 0 -> f a /. float_of_int a.calls
  | _ -> 0.

let proc_field path key =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.sub line 0 i = key ->
                Scanf.sscanf_opt (String.sub line (i + 1) (String.length line - i - 1)) " %f" Fun.id
            | _ -> find ())
      in
      let r = find () in
      close_in ic;
      r

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Fmt.str "/proc/%d/status" p in
  match proc_field path "VmHWM" with Some kb -> kb /. 1024. | None -> nan

(* utime + stime of a child, in seconds (USER_HZ = 100 on Linux). *)
let proc_cpu_s pid =
  match open_in (Fmt.str "/proc/%d/stat" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      let line = input_line ic in
      close_in ic;
      let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

let seconds_list a = String.concat " " (Array.to_list (Array.map (Fmt.str "%.4f") a))

(* ---- inputs ------------------------------------------------------------ *)

let weights = Objective.make_weights ~alpha:0.4 ~beta:0.3

(* Spec.scaled's proportional rule (levels = n/32, batteries and tau scaled
   by n/1024), written out on the public record so it also reaches sizes
   above the paper's |T| = 1024, which Spec.scaled rejects. *)
let spec_of_size ~seed n =
  let base = Spec.paper_scale ~seed () in
  let f = float_of_int n /. float_of_int base.Spec.n_tasks in
  let spec =
    {
      base with
      Spec.n_tasks = n;
      etc_params = { (Agrid_etc.Etc.default_params ~n_tasks:n) with Agrid_etc.Etc.n_tasks = n };
      dag_params =
        { (Agrid_dag.Generate.default_params ~n) with Agrid_dag.Generate.n_levels = max 2 (n / 32) };
      battery_scale = f;
      tau_seconds = base.Spec.tau_seconds *. f;
    }
  in
  Spec.validate spec;
  spec

let validation_problems ~complete (r : Validate.report) =
  List.concat
    [
      (match r.Validate.violations with [] -> [] | v :: _ -> [ "violation: " ^ v ]);
      (if r.Validate.energy_ok then [] else [ "battery exceeded" ]);
      (if r.Validate.time_ok then [] else [ "AET beyond tau" ]);
      (if complete && not r.Validate.complete then [ "incomplete" ] else []);
    ]

(* Same input, same scheduler: same T100, every time it is run. The first
   value seen per key feeds t100_mean, which is therefore independent of
   how many cycles fit in the window. *)
let t100_seen : (string, int) Hashtbl.t = Hashtbl.create 64

let t100_problems key t100 =
  match Hashtbl.find_opt t100_seen key with
  | None ->
      Hashtbl.replace t100_seen key t100;
      []
  | Some t when t = t100 -> []
  | Some t -> [ Fmt.str "T100 %d differs from an earlier %d on the same input" t100 t ]

let t100_mean ~keep =
  let vs = Hashtbl.fold (fun k v acc -> if keep k then float_of_int v :: acc else acc) t100_seen [] in
  M.mean (Array.of_list vs)

(* ---- SLRH with the breakdown read from the program's own spans -------- *)

let span_total stats name =
  match List.find_opt (fun s -> s.Span.name = name) stats with
  | Some s -> s.Span.total_s
  | None -> 0.

(* Run SLRH; when [traced], through an attached sink whose spans and the
   outcome's counters go to the "core" accumulator. *)
let run_slrh ~traced params w =
  let sink = if traced then Sink.create ~stride:max_int () else Sink.noop in
  let o, c = costed (fun () -> Slrh.run { params with Slrh.obs = sink } w) in
  if traced then begin
    account "core" c;
    let spans = Sink.span_stats sink in
    List.iter
      (fun (q, span) -> add_quantity "core" q (span_total spans span))
      [
        ("plan", "slrh/plan");
        ("score", "slrh/score");
        ("pool_build", "slrh/pool_build");
        ("filter", "feasibility/filter");
      ];
    let s = o.Slrh.stats in
    List.iter
      (fun (q, v) -> add_quantity "core" q (float_of_int v))
      [
        ("clock_steps", s.Slrh.clock_steps);
        ("pools_built", s.Slrh.pools_built);
        ("candidates_scored", s.Slrh.candidates_scored);
        ("plans_attempted", s.Slrh.plans_attempted);
        ("assignments", s.Slrh.assignments);
      ]
  end;
  (o, c.wall)

let validate ~traced sched =
  if traced then begin
    let r, c = costed (fun () -> Validate.check sched) in
    account "sched.validate" c;
    add_quantity "sched.validate" "transfers" (float_of_int (Array.length (Schedule.transfers sched)));
    r
  end
  else Validate.check sched

let realize_costed ~traced f =
  if traced then begin
    let w, c = costed f in
    account "workload.build" c;
    w
  end
  else f ()

(* ---- paper-batch ------------------------------------------------------ *)

type input = { in_seed : int; etc_index : int; dag_index : int; base : Spec.t; double : Spec.t }

let draw_inputs rng ~k ~n =
  Array.init k (fun _ ->
      let in_seed = Rng.next_int rng 1_000_000 in
      let etc_index = Rng.next_int rng 10 in
      let dag_index = Rng.next_int rng 10 in
      { in_seed; etc_index; dag_index; base = spec_of_size ~seed:in_seed n; double = spec_of_size ~seed:in_seed (2 * n) })

let build inp spec = Workload.build spec ~etc_index:inp.etc_index ~dag_index:inp.dag_index ~case:Grid.A

let churn_missed = ref 0
let churn_overdrawn = ref 0

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

type kind = Slrh1 | Slrh3 | Max_max | Churn

let kind_name = function Slrh1 -> "slrh1" | Slrh3 -> "slrh3" | Max_max -> "maxmax" | Churn -> "churn"

(* One operation: realize + schedule + validate of one |T| = n schedule.
   Returns the SLRH run time alone (for the growth pairing) on SLRH-1. *)
let paper_op ~traced i inp kind =
  let w = realize_costed ~traced (fun () -> build inp inp.base) in
  let params v = Slrh.default_params ~variant:v weights in
  let sched, complete, problems, run_wall =
    match kind with
    | Slrh1 | Slrh3 ->
        let o, wall = run_slrh ~traced (params (if kind = Slrh1 then Slrh.V1 else Slrh.V3)) w in
        (o.Slrh.schedule, true, (if o.Slrh.completed then [] else [ "SLRH did not complete" ]), wall)
    | Max_max ->
        let o, c = costed (fun () -> Maxmax.run (Maxmax.default_params weights) w) in
        if traced then account "baselines.maxmax" c;
        (o.Maxmax.schedule, false, [], c.wall)
    | Churn ->
        let tau = Workload.tau w in
        let events =
          [ { Event.at = tau / 8; kind = Event.Leave 1 }; { Event.at = tau / 2; kind = Event.Rejoin 1 } ]
        in
        let o, c = costed (fun () -> Dynamic.run_churn (params Slrh.V1) w events) in
        if traced then account "churn.run_churn" c;
        (* Losing a machine for 3/8 of tau can miss the deadline (unmapped
           subtasks or AET past tau), and the sunk charges can push a
           battery a transfer-sized amount over (DESIGN.md section 6). Both
           are outcomes of the trace: counted and reported, not failed.
           Any other audit finding fails the operation. *)
        let overdrawn, audit =
          List.partition (fun a -> contains a "battery overdrawn") (Engine.audit o)
        in
        if overdrawn <> [] || not o.Engine.ledger_energy_ok then incr churn_overdrawn;
        (o.Engine.schedule, false, List.map (fun a -> "audit: " ^ a) audit, c.wall)
  in
  let r = validate ~traced sched in
  let r =
    if kind = Churn then begin
      if not (r.Validate.complete && r.Validate.time_ok) then incr churn_missed;
      { r with Validate.time_ok = true }
    end
    else r
  in
  let problems =
    problems @ validation_problems ~complete r
    @ t100_problems (Fmt.str "%d/%s" i (kind_name kind)) r.Validate.t100
  in
  (problems, run_wall)

let kinds = [ Slrh1; Slrh3; Max_max; Churn ]

type batch = {
  ops : int;
  latencies : float list;
  by_kind : (kind * float) list;
  busy : float;  (** loop time, growth runs excluded *)
  cpu : float;
  words : float;
  majors : int;
  small : float list;  (** SLRH-1 run time at |T| = n *)
  large : float list;  (** ... and at 2n, same inputs *)
  lag : float list;  (** bench time between one operation and the next *)
}

let paper_batch_phase ~traced ~seconds ~need_ops ~need_cycles inputs =
  let k = Array.length inputs in
  let latencies = ref [] and by_kind = ref [] and lag = ref [] and small = ref [] and large = ref [] in
  let ops = ref 0 and cpu = ref 0. and words = ref 0. and majors = ref 0 in
  let growth_time = ref 0. in
  let t0 = Clock.monotonic_ns () in
  let last_end = ref 0. in
  let cycle = ref 0 in
  while Clock.elapsed_seconds ~since:t0 < seconds || !ops < need_ops || !cycle < need_cycles do
    let i = !cycle mod k in
    let inp = inputs.(i) in
    List.iter
      (fun kind ->
        let now = Clock.elapsed_seconds ~since:t0 in
        if !ops > 0 then lag := (now -. !last_end) :: !lag;
        let (problems, run_wall), c = costed (fun () -> paper_op ~traced i inp kind) in
        last_end := Clock.elapsed_seconds ~since:t0;
        judge (Fmt.str "cycle %d %s" !cycle (kind_name kind)) problems;
        incr ops;
        latencies := c.wall :: !latencies;
        by_kind := (kind, c.wall) :: !by_kind;
        cpu := !cpu +. c.cpu;
        words := !words +. c.words;
        majors := !majors + c.majors;
        if kind = Slrh1 then small := run_wall :: !small)
      kinds;
    (* the growth probe: same input at twice the size, SLRH-1 only *)
    let g0 = Clock.monotonic_ns () in
    let w2 = build inp inp.double in
    let o, wall = timed (fun () -> Slrh.run (Slrh.default_params weights) w2) in
    large := wall :: !large;
    let r = Validate.check o.Slrh.schedule in
    judge
      (Fmt.str "cycle %d slrh1 at 2n" !cycle)
      ((if o.Slrh.completed then [] else [ "SLRH did not complete" ])
      @ validation_problems ~complete:true r
      @ t100_problems (Fmt.str "%d/double" i) r.Validate.t100);
    growth_time := !growth_time +. Clock.elapsed_seconds ~since:g0;
    last_end := Clock.elapsed_seconds ~since:t0;
    incr cycle
  done;
  {
    ops = !ops;
    latencies = !latencies;
    by_kind = !by_kind;
    busy = Clock.elapsed_seconds ~since:t0 -. !growth_time;
    cpu = !cpu;
    words = !words;
    majors = !majors;
    small = !small;
    large = !large;
    lag = !lag;
  }

let paper_batch () =
  let n = if !smoke then 64 else 1024 in
  (* Inputs are cycled; a full-size run gets through about 30 of them.
     t100_mean covers the first [t100_cycles], which every untraced run
     reaches, so it does not depend on how many cycles fit. *)
  let k = 32 and t100_cycles = 24 in
  (* Set-up: draw the inputs and warm up (realize + SLRH-1 + validate).
     Done five times; the first round also counts the process start. *)
  let setup_round start =
    let inputs = draw_inputs (Rng.of_int !seed) ~k ~n in
    (* the warm-up input is the paper's own (seed 2004, ETC 0, DAG 0), so
       set-up cost does not depend on the seed *)
    let w = Workload.build (spec_of_size ~seed:2004 n) ~etc_index:0 ~dag_index:0 ~case:Grid.A in
    let o = Slrh.run (Slrh.default_params weights) w in
    ignore (Validate.check o.Slrh.schedule);
    (inputs, Unix.gettimeofday () -. start)
  in
  let inputs, s1 = setup_round process_start in
  let setups = Array.append [| s1 |] (Array.init 4 (fun _ -> snd (setup_round (Unix.gettimeofday ())))) in
  let setup = M.median setups in
  let traced = !trace = 1 in
  let phase_seconds = if traced then !seconds /. 2. else !seconds in
  let untraced =
    paper_batch_phase ~traced:false ~seconds:phase_seconds ~need_ops:(if traced then 0 else min_ops)
      ~need_cycles:(if traced then 8 else t100_cycles) inputs
  in
  let rate b = float_of_int b.ops /. b.busy in
  let b = untraced in
  let lat = Array.of_list b.latencies in
  let nops = float_of_int b.ops in
  let growth = M.growth_exponent ~small:(Array.of_list b.small) ~large:(Array.of_list b.large) in
  let note = Fmt.str "n=%d" b.ops in
  put e2e "sched_per_s" "1/s" (rate b) ~note:(Fmt.str "%d validated |T|=%d schedules in %.2f s" b.ops n b.busy);
  put e2e "latency_p50_ms" "ms" (1e3 *. M.median lat) ~note;
  (match M.tail ~q:0.9 lat with
  | Some p -> put e2e "latency_p90_ms" "ms" (1e3 *. p) ~note:(Fmt.str "n=%d, %d beyond" b.ops (M.beyond ~q:0.9 b.ops))
  | None -> put extra "latency_p90_ms_unreported" "count" (float_of_int b.ops) ~note:"fewer than 10 samples beyond p90");
  put e2e "cpu_ms_per_sched" "ms" (1e3 *. b.cpu /. nops) ~note;
  put e2e "alloc_mb_per_sched" "MB" (mb_of_words b.words /. nops) ~note;
  put e2e "peak_rss_mb" "MB" (peak_rss_mb None) ~note:"VmHWM of the bench process";
  put e2e "growth_exponent" "log2" growth
    ~note:(Fmt.str "SLRH-1 median %.4f s at |T|=%d vs %.4f s at %d, %d pairs" (M.median (Array.of_list b.large)) (2 * n)
             (M.median (Array.of_list b.small)) n (List.length b.small));
  put e2e "t100_mean" "count"
    (t100_mean ~keep:(fun key ->
         match String.split_on_char '/' key with
         | [ i; kind ] -> int_of_string i < t100_cycles && kind <> "double"
         | _ -> false))
    ~note:(Fmt.str "first %d inputs x 4 schedulers" t100_cycles);
  put e2e "setup_s" "s" setup ~note:(Fmt.str "median of 5 rounds (%s)" (seconds_list setups));
  put extra "major_gcs_per_sched" "count" (float_of_int b.majors /. nops) ~note;
  List.iter
    (fun kind ->
      let l = Array.of_list (List.filter_map (fun (k, w) -> if k = kind then Some w else None) b.by_kind) in
      put extra ("latency_p50_ms." ^ kind_name kind) "ms" (1e3 *. M.median l) ~note:(Fmt.str "n=%d" (Array.length l)))
    kinds;
  put extra "churn.deadline_missed_runs" "count" (float_of_int !churn_missed)
    ~note:"leave machine 1 at tau/8, rejoin at tau/2: runs left incomplete or ending past tau";
  put extra "churn.overdrawn_runs" "count" (float_of_int !churn_overdrawn)
    ~note:"churn runs whose ledger ends over a battery (DESIGN.md section 6 slack)";
  if traced then begin
    let tb = paper_batch_phase ~traced:true ~seconds:phase_seconds ~need_ops:0 ~need_cycles:8 inputs in
    put layer "bench.trace_overhead" "ratio" ((rate b /. rate tb) -. 1.)
      ~note:(Fmt.str "untraced %.3f/s vs traced %.3f/s" (rate b) (rate tb));
    put layer "bench.gen_lag_ms" "ms" (1e3 *. M.mean (Array.of_list tb.lag)) ~note:"closed loop: gap between operations"
  end

(* ---- the agrid serve daemon ------------------------------------------- *)

type daemon = { pid : int; sock : string; log : string; born : float }

let daemon_env () =
  Array.of_list
    ("OCAMLRUNPARAM=v=0x400"
    :: List.filter
         (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
         (Array.to_list (Unix.environment ())))

let daemon_counter = ref 0

(* Spawn the built binary directly (no dune exec: concurrent dune
   invocations race the build lock). OCAMLRUNPARAM=v=0x400 makes the
   daemon print its lifetime GC counters on exit. *)
let spawn ?trace_file () =
  incr daemon_counter;
  let name = Fmt.str "d%d-%d" (Unix.getpid ()) !daemon_counter in
  let sock = Filename.concat !tmp (name ^ ".sock") in
  let log = Filename.concat !tmp (name ^ ".log") in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let argv =
    [ !agrid; "serve"; "--workers"; "2"; "--socket"; sock ]
    @ match trace_file with None -> [] | Some f -> [ "--trace"; f ]
  in
  let born = Unix.gettimeofday () in
  let pid = Unix.create_process_env !agrid (Array.of_list argv) (daemon_env ()) stdin_r out out in
  Unix.close out;
  Unix.close stdin_r;
  Unix.close stdin_w;
  { pid; sock; log; born }

exception Daemon_failed of string

let alive d = match Unix.waitpid [ Unix.WNOHANG ] d.pid with 0, _ -> true | _ -> false

(* A line-buffered client connection. *)
type conn = { fd : Unix.file_descr; chunk : Bytes.t; pending : Buffer.t }

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { fd; chunk = Bytes.create 65536; pending = Buffer.create 65536 }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let send conn line =
  let s = line ^ "\n" in
  let rec go off = if off < String.length s then go (off + Unix.write_substring conn.fd s off (String.length s - off)) in
  go 0

(* Wait up to [timeout] s for input; the complete lines read ([] on a
   timeout), or None at end of stream. *)
let recv conn ~timeout =
  match Unix.select [ conn.fd ] [] [] (Float.max 0. timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> Some []
  | [], _, _ -> Some []
  | _ -> (
      match Unix.read conn.fd conn.chunk 0 (Bytes.length conn.chunk) with
      | 0 -> None
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None
      | n ->
          Buffer.add_subbytes conn.pending conn.chunk 0 n;
          let s = Buffer.contents conn.pending in
          let parts = String.split_on_char '\n' s in
          let rec split acc = function
            | [ rest ] ->
                Buffer.clear conn.pending;
                Buffer.add_string conn.pending rest;
                List.rev acc
            | l :: tl -> split (l :: acc) tl
            | [] -> List.rev acc
          in
          Some (split [] parts))

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let health_line = Json.to_string (Json.Obj [ ("schema", Json.Str Codec.schema); ("kind", Json.Str "health") ])

(* Spawn-to-health-answered time, bounded by [limit] seconds. *)
let await_health ?(limit = 20.) d =
  let deadline = d.born +. limit in
  let rec attempt () =
    if Unix.gettimeofday () > deadline then raise (Daemon_failed "no health answer in time");
    if not (alive d) then raise (Daemon_failed "daemon exited during start-up");
    match connect d.sock with
    | None ->
        Unix.sleepf 0.0001;
        attempt ()
    | Some c ->
        send c health_line;
        let rec wait () =
          match recv c ~timeout:(deadline -. Unix.gettimeofday ()) with
          | None -> raise (Daemon_failed "health connection closed")
          | Some [] when Unix.gettimeofday () > deadline -> raise (Daemon_failed "no health answer in time")
          | Some [] -> wait ()
          | Some (l :: _) -> l
        in
        let line = wait () in
        let t = Unix.gettimeofday () -. d.born in
        close c;
        (match Codec.parse_response line with
        | Ok { Codec.r_type = `Health; _ } -> ()
        | _ -> raise (Daemon_failed ("unexpected health answer: " ^ line)));
        t
  in
  attempt ()

type daemon_exit = {
  stats : (string * int) list;  (** the stderr stats line, by field *)
  gc : (string * float) list;  (** lifetime GC counters printed at exit *)
}

let read_log path =
  let ic = open_in path in
  let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc in
  let ls = lines [] in
  close_in ic;
  ls

let parse_exit lines =
  let stats =
    List.concat_map
      (fun l ->
        match
          Scanf.sscanf_opt l
            "agrid serve: requests %d accepted %d completed %d (deadline_missed %d errored %d) rejected (full %d \
             malformed %d draining %d tenant_quota %d) dropped %d health %d stats %d respond_errors %d \
             queue_high_water %d"
            (fun rq ac co dm er fu ma dr tq dropped he st re hw ->
              [
                ("requests", rq); ("accepted", ac); ("completed", co); ("deadline_missed", dm); ("errored", er);
                ("queue_full", fu); ("malformed", ma); ("draining", dr); ("tenant_quota", tq); ("dropped", dropped);
                ("health", he); ("stats", st); ("respond_errors", re); ("queue_high_water", hw);
              ])
        with
        | Some s -> s
        | None -> [])
      lines
  in
  let gc =
    List.filter_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i -> (
            let key = String.sub l 0 i in
            match float_of_string_opt (String.trim (String.sub l (i + 1) (String.length l - i - 1))) with
            | Some v when List.mem key [ "allocated_words"; "minor_collections"; "major_collections" ] -> Some (key, v)
            | _ -> None)
        | None -> None)
      lines
  in
  { stats; gc }

(* SIGTERM, then wait (bounded) for the drain; SIGKILL as a last resort. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid);
        Error "daemon ignored SIGTERM for 30 s"
    | _, Unix.WEXITED 0 -> Ok ()
    | _, _ -> Error "daemon exited abnormally"
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Ok ()
  in
  let r = wait () in
  let lines = read_log d.log in
  (try Sys.remove d.log with Sys_error _ -> ());
  (r, parse_exit lines)

let live_daemons = ref []

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
    !live_daemons;
  live_daemons := []

let start_daemon ?trace_file () =
  let d = spawn ?trace_file () in
  live_daemons := d :: !live_daemons;
  let t = await_health d in
  (d, t)

let stop_daemon d =
  let r = stop d in
  live_daemons := List.filter (fun x -> x.pid <> d.pid) !live_daemons;
  r

(* ---- serve workloads --------------------------------------------------- *)

type response = {
  job : int;
  client_s : float;  (** send (closed loop) or due time (open loop) to response line *)
  latency_s : float;
  wall_s : float;
  status : string;
  t100 : int;
  mapped : int;
  tec_bits : string;
}

type session = {
  responses : response list;
  sent : int;
  rejected : int;
  missing : int;
  window : float;  (** first send to last response *)
  lags : float list;  (** open loop: how late each send was *)
  daemon_cpu : float;
  daemon_rss : float;
  exit_info : daemon_exit;
  stop_error : string option;
}

(* Drive one daemon lifecycle: [arrivals] = `Closed outstanding (keep that
   many jobs in flight until [seconds] have passed and at least [need]
   jobs were sent) or `Open dues (send job k at dues.(k)). *)
let drive d ~line_of ~arrivals ~seconds ~need =
  let conn = match connect d.sock with Some c -> c | None -> raise (Daemon_failed "cannot connect") in
  let cpu0 = proc_cpu_s d.pid in
  let t0 = Clock.monotonic_ns () in
  let now () = Clock.elapsed_seconds ~since:t0 in
  let inflight : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let responses = ref [] and rejected = ref 0 and lags = ref [] and sent = ref 0 in
  let last_progress = ref 0. and last_response = ref 0. in
  let freed = Queue.create () in
  let send_job k =
    (match arrivals with
    | `Closed _ -> if not (Queue.is_empty freed) then lags := (now () -. Queue.pop freed) :: !lags
    | `Open _ -> ());
    send conn (line_of k);
    Hashtbl.replace inflight k (match arrivals with `Closed _ -> now () | `Open dues -> dues.(k));
    incr sent
  in
  let handle line =
    last_progress := now ();
    match Codec.parse_response line with
    | Error _ -> ()
    | Ok r -> (
        match Option.bind r.Codec.r_tag int_of_string_opt with
        | None -> ()
        | Some k -> (
            match Hashtbl.find_opt inflight k with
            | None -> ()
            | Some start -> (
                Hashtbl.remove inflight k;
                last_response := now ();
                Queue.push !last_response freed;
                match r.Codec.r_type with
                | `Result ->
                    let j = r.Codec.r_json in
                    let f key = Option.value ~default:nan (Json.get_float key j) in
                    let i key = Option.value ~default:(-1) (Json.get_int key j) in
                    responses :=
                      {
                        job = k;
                        client_s = !last_response -. start;
                        latency_s = f "latency_s";
                        wall_s = f "wall_s";
                        status = Option.value ~default:"?" r.Codec.r_status;
                        t100 = i "t100";
                        mapped = i "mapped";
                        tec_bits = Option.value ~default:"?" (Json.get_string "tec_bits" j);
                      }
                      :: !responses
                | _ -> incr rejected)))
  in
  let timeout = 60. in
  let stalled () = now () -. !last_progress > timeout in
  let total = match arrivals with `Open dues -> Array.length dues | `Closed _ -> max_int in
  let finished = ref false in
  while not !finished do
    (match arrivals with
    | `Closed window ->
        while Hashtbl.length inflight < window && (now () < seconds || !sent < need) do
          send_job !sent
        done
    | `Open dues ->
        while !sent < total && dues.(!sent) <= now () do
          lags := (now () -. dues.(!sent)) :: !lags;
          send_job !sent
        done);
    let more_to_send =
      match arrivals with `Open _ -> !sent < total | `Closed _ -> now () < seconds || !sent < need
    in
    if (not more_to_send) && Hashtbl.length inflight = 0 then finished := true
    else if stalled () then finished := true
    else begin
      let wait =
        match arrivals with
        | `Open dues when !sent < total -> Float.min 0.5 (dues.(!sent) -. now ())
        | _ -> 0.5
      in
      match recv conn ~timeout:wait with
      | None -> finished := true
      | Some lines -> List.iter handle lines
    end
  done;
  let missing = Hashtbl.length inflight in
  let window = !last_response in
  let daemon_cpu = proc_cpu_s d.pid -. cpu0 in
  let daemon_rss = peak_rss_mb (Some d.pid) in
  (* end of input: the daemon answers what is left, then hangs up *)
  (try Unix.shutdown conn.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec drain () =
    if Unix.gettimeofday () < deadline then
      match recv conn ~timeout:0.5 with None -> () | Some _ -> drain ()
  in
  drain ();
  close conn;
  let stop_result, exit_info = stop_daemon d in
  {
    responses = List.rev !responses;
    sent = !sent;
    rejected = !rejected;
    missing;
    window;
    lags = !lags;
    daemon_cpu;
    daemon_rss;
    exit_info;
    stop_error = (match stop_result with Ok () -> None | Error e -> Some e);
  }

(* The job pool a serve workload cycles through: one job size, seeds drawn
   from the run's seed; [vary] also draws ETC/DAG indices and the variant. *)
let job_pool rng ~size ~scale ~vary =
  Array.init size (fun _ ->
      let seed = Rng.next_int rng 1_000_000 in
      let etc_index, dag_index, variant =
        if vary then (Rng.next_int rng 10, Rng.next_int rng 10, if Rng.next_bool rng then Slrh.V1 else Slrh.V3)
        else (0, 0, Slrh.V1)
      in
      let scenario = Serialize.Generated { seed; scale; etc_index; dag_index; case = Grid.A } in
      { (Job.default scenario) with Job.variant })

let with_scale (spec : Job.spec) scale =
  match spec.Job.scenario with
  | Serialize.Generated g -> { spec with Job.scenario = Serialize.Generated { g with scale } }
  | Serialize.Pinned _ -> spec

type reference = {
  result : Job.result;
  job_wall : float;
  other_wall : float;  (** Job.run of the same scenario at the other growth size *)
  request_parse_s : float;
  result_encode_s : float;
}

(* In-process replay of each pool spec, outside the timed window: the
   one-shot Job.run every served result must equal bit for bit, and the
   same scenario realized, scheduled and validated through the public
   calls (traced when [traced]) so the served schedule is known to pass
   the validator. *)
let replay ~traced ~other_scale pool =
  Array.mapi
    (fun k spec ->
      let result, job_wall = timed (fun () -> Job.run spec) in
      let other, other_wall = timed (fun () -> Job.run (with_scale spec other_scale)) in
      let line = Json.to_string (Codec.job_to_json spec) in
      let parsed, request_parse_s = timed (fun () -> Codec.parse_request line) in
      let _, result_encode_s = timed (fun () -> Codec.result_line ~id:k ~tag:None ~latency_s:0. result) in
      let w = realize_costed ~traced (fun () -> Serialize.realize spec.Job.scenario) in
      let job_weights = Objective.make_weights ~alpha:spec.Job.alpha ~beta:spec.Job.beta in
      let o, _ = run_slrh ~traced (Slrh.default_params ~variant:spec.Job.variant job_weights) w in
      let r = validate ~traced o.Slrh.schedule in
      let sched = o.Slrh.schedule in
      let same =
        Schedule.n_primary sched = result.Job.t100
        && Schedule.n_mapped sched = result.Job.mapped
        && Int64.equal (Int64.bits_of_float (Schedule.tec sched)) (Int64.bits_of_float result.Job.tec)
      in
      judge
        (Fmt.str "replay of pool spec %d" k)
        (List.concat
           [
             (match parsed with Ok (Codec.Submit _) -> [] | _ -> [ "request line does not parse back" ]);
             (if result.Job.status = Job.Ok_done && result.Job.completed then [] else [ "Job.run not ok/complete" ]);
             (if other.Job.status = Job.Ok_done && other.Job.completed then []
              else [ "Job.run at the other growth size not ok/complete" ]);
             (if o.Slrh.completed then [] else [ "SLRH did not complete" ]);
             validation_problems ~complete:true r;
             (if same then []
              else [ "validated schedule differs from Job.run" ]);
           ]);
      { result; job_wall; other_wall; request_parse_s; result_encode_s })
    pool

let check_served pool refs s =
  List.iter
    (fun (r : response) ->
      let k = r.job mod Array.length pool in
      let ref_ = refs.(k).result in
      judge
        (Fmt.str "served job %d" r.job)
        (List.concat
           [
             (if r.status = "ok" then [] else [ "status " ^ r.status ]);
             (if r.t100 = ref_.Job.t100 then [] else [ Fmt.str "t100 %d vs one-shot %d" r.t100 ref_.Job.t100 ]);
             (if r.mapped = ref_.Job.mapped then [] else [ Fmt.str "mapped %d vs one-shot %d" r.mapped ref_.Job.mapped ]);
             (let bits = Fmt.str "%Lx" (Int64.bits_of_float ref_.Job.tec) in
              if r.tec_bits = bits then [] else [ Fmt.str "tec_bits %s vs one-shot %s" r.tec_bits bits ]);
           ]))
    s.responses;
  for _ = 1 to s.rejected do judge "served job" [ "rejected" ] done;
  for _ = 1 to s.missing do judge "served job" [ "no response" ] done;
  (match s.stop_error with Some e -> judge "daemon shutdown" [ e ] | None -> ());
  judge "daemon stats"
    ((if s.exit_info.stats = [] then [ "no stats line on exit" ] else [])
    @ List.filter_map
       (fun (name, v) ->
         if List.mem name [ "errored"; "deadline_missed"; "queue_full"; "malformed"; "dropped"; "respond_errors" ] && v > 0
         then Some (Fmt.str "%s %d" name v)
         else None)
       s.exit_info.stats)

let gc_of s key = List.assoc_opt key s.exit_info.gc |> Option.value ~default:nan
let stat_of s key = List.assoc_opt key s.exit_info.stats |> Option.value ~default:0

let serve ~open_loop () =
  (* job scale, the other size of the growth pair, pool size *)
  let scale, other_scale, pool_size =
    match (open_loop, !smoke) with
    | false, false -> (1.0, 0.5, 48)
    | false, true -> (0.125, 0.0625, 48)
    | true, false -> (0.125, 0.25, 256)
    | true, true -> (0.0625, 0.125, 256)
  in
  let rate = if !smoke then 100. else 40. in
  let rng = Rng.of_int !seed in
  let pool = job_pool rng ~size:pool_size ~scale ~vary:open_loop in
  let line_of k =
    let spec = pool.(k mod pool_size) in
    Json.to_string (Codec.job_to_json { spec with Job.tag = Some (string_of_int k) })
  in
  (* Open loop: a Poisson process at [rate] conditioned on its count, so
     every run offers the same load: n exponential gaps rescaled to span
     n / rate seconds. *)
  let arrivals seconds =
    if open_loop then begin
      let arng = Rng.split rng in
      let n = max min_ops (int_of_float (Float.round (rate *. seconds))) in
      let span = float_of_int n /. rate in
      let gaps = Array.init (n + 1) (fun _ -> Dist.exponential arng ~rate) in
      let total = Array.fold_left ( +. ) 0. gaps in
      let t = ref 0. in
      `Open
        (Array.init n (fun i ->
             t := !t +. gaps.(i);
             !t *. span /. total))
    end
    else `Closed 2
  in
  (* set-up: spawn until a health probe is answered, [spawns] times; the
     last daemon is kept, the others give the idle daemon's GC baseline *)
  let spawns = 7 in
  let setups = Array.make spawns 0. in
  let idle_words = ref [] and idle_majors = ref [] in
  let d = ref None in
  for i = 0 to spawns - 1 do
    let dm, t = start_daemon () in
    setups.(i) <- t;
    if i < spawns - 1 then begin
      let _, info = stop_daemon dm in
      let g key = List.assoc_opt key info.gc |> Option.value ~default:0. in
      idle_words := g "allocated_words" :: !idle_words;
      idle_majors := g "major_collections" :: !idle_majors
    end
    else d := Some dm
  done;
  let d = Option.get !d in
  let traced = !trace = 1 in
  let phase_seconds = if traced then !seconds /. 2. else !seconds in
  let need = if traced then 0 else min_ops in
  let s = drive d ~line_of ~arrivals:(arrivals phase_seconds) ~seconds:phase_seconds ~need in
  let ts =
    if traced then begin
      let trace_file = Filename.concat !tmp (Fmt.str "trace-%d.jsonl" (Unix.getpid ())) in
      let d, _ = start_daemon ~trace_file () in
      let ts = drive d ~line_of ~arrivals:(arrivals phase_seconds) ~seconds:phase_seconds ~need:0 in
      (try Sys.remove trace_file with Sys_error _ -> ());
      Some ts
    end
    else None
  in
  let refs = replay ~traced ~other_scale pool in
  check_served pool refs s;
  Option.iter (check_served pool refs) ts;
  let ok rs = List.filter (fun r -> r.status = "ok") rs in
  let oks = ok s.responses in
  let nok = float_of_int (List.length oks) in
  let rate_of s = float_of_int (List.length (ok s.responses)) /. s.window in
  let client = Array.of_list (List.map (fun r -> r.client_s) oks) in
  let n = Array.length client in
  let note = Fmt.str "n=%d" n in
  (* growth over the whole pool, replayed in process: served wall times
     carry the other worker's contention, which would swamp the size
     effect *)
  let at_job = Array.map (fun r -> r.job_wall) refs and at_other = Array.map (fun r -> r.other_wall) refs in
  let small, large = if other_scale > scale then (at_job, at_other) else (at_other, at_job) in
  let lo = Float.min scale other_scale and hi = Float.max scale other_scale in
  let idle_w = M.median (Array.of_list !idle_words) and idle_m = M.median (Array.of_list !idle_majors) in
  put e2e "sched_per_s" "1/s" (rate_of s)
    ~note:(Fmt.str "%d ok responses in %.2f s (%s)" n s.window
             (if open_loop then Fmt.str "open loop, Poisson %.0f/s" rate else "closed loop, 2 outstanding"));
  put e2e "latency_p50_ms" "ms" (1e3 *. M.median client) ~note;
  (match M.tail ~q:0.9 client with
  | Some p -> put e2e "latency_p90_ms" "ms" (1e3 *. p) ~note:(Fmt.str "n=%d, %d beyond" n (M.beyond ~q:0.9 n))
  | None -> put extra "latency_p90_ms_unreported" "count" (float_of_int n) ~note:"fewer than 10 samples beyond p90");
  put e2e "cpu_ms_per_sched" "ms" (1e3 *. s.daemon_cpu /. nok) ~note:"daemon utime+stime over the window";
  put e2e "alloc_mb_per_sched" "MB" (mb_of_words (gc_of s "allocated_words" -. idle_w) /. nok)
    ~note:"daemon lifetime allocation minus an idle daemon's";
  put e2e "peak_rss_mb" "MB" s.daemon_rss ~note:"VmHWM of the daemon";
  put e2e "growth_exponent" "log2" (M.growth_exponent ~small ~large)
    ~note:(Fmt.str "in-process Job.run median %.4f s at |T|=%.0f vs %.4f s at %.0f, %d pool scenarios" (M.median large)
             (hi *. 1024.) (M.median small) (lo *. 1024.) (Array.length small));
  put e2e "t100_mean" "count" (M.mean (Array.map (fun r -> float_of_int r.result.Job.t100) refs))
    ~note:(Fmt.str "%d pool specs" pool_size);
  put e2e "setup_s" "s" (M.median setups)
    ~note:(Fmt.str "spawn to health answer, median of %d (%s)" spawns (seconds_list setups));
  put extra "major_gcs_per_sched" "count" ((gc_of s "major_collections" -. idle_m) /. nok) ~note:"daemon lifetime";
  match ts with
  | None -> ()
  | Some ts ->
      let toks = ok ts.responses in
      let tn = float_of_int (List.length toks) in
      let med f = M.median (Array.of_list (List.map f toks)) in
      let splits = List.map (fun r -> M.split_served ~client_s:r.client_s ~latency_s:r.latency_s ~wall_s:r.wall_s) toks in
      let med_split f = M.median (Array.of_list (List.map f splits)) in
      let overhead =
        if open_loop then
          (M.median (Array.of_list (List.map (fun r -> r.client_s) toks)) /. M.median client) -. 1.
        else (rate_of s /. rate_of ts) -. 1.
      in
      put layer "bench.trace_overhead" "ratio" overhead
        ~note:
          (if open_loop then "traced vs untraced p50 latency (open loop: the rate is fixed)"
           else Fmt.str "untraced %.3f/s vs traced %.3f/s" (rate_of s) (rate_of ts));
      put layer "bench.gen_lag_ms" "ms" (1e3 *. M.mean (Array.of_list ts.lags))
        ~note:
          (if open_loop then "mean lateness of the open-loop sender"
           else "closed loop: mean gap from a response to the send it frees");
      put extra "serve.wire_ms" "ms" (1e3 *. med_split (fun x -> x.M.wire_s)) ~note:"client latency - latency_s";
      put extra "serve.queue_ms" "ms" (1e3 *. med_split (fun x -> x.M.queue_s)) ~note:"latency_s - wall_s";
      put extra "serve.job_wall_ms" "ms" (1e3 *. med (fun r -> r.wall_s));
      put extra "serve.codec_parse_us" "us"
        (1e6 *. M.median (Array.map (fun r -> r.request_parse_s) refs)) ~note:"Codec.parse_request, bench side";
      put extra "serve.codec_encode_us" "us"
        (1e6 *. M.median (Array.map (fun r -> r.result_encode_s) refs)) ~note:"Codec.result_line, bench side";
      put extra "serve.contention_ratio" "ratio"
        (med (fun r -> r.wall_s /. refs.(r.job mod pool_size).job_wall)) ~note:"served wall_s / one-shot Job.run wall";
      put extra "serve.daemon_cpu_ms_per_job" "ms" (1e3 *. ts.daemon_cpu /. tn);
      put extra "serve.queue_high_water" "count" (float_of_int (stat_of ts "queue_high_water"));
      List.iter
        (fun reason -> put extra ("serve.rejected." ^ reason) "count" (float_of_int (stat_of ts reason)))
        [ "queue_full"; "malformed"; "draining"; "tenant_quota" ]

(* ---- per-layer metrics from the accumulators -------------------------- *)

let layer_metrics () =
  let ms name = per_call name (fun a -> 1e3 *. a.total.wall) in
  let core q = per_call "core" (fun a -> Option.value ~default:0. (Hashtbl.find_opt a.quantities q)) in
  put layer "workload.build_ms" "ms" (ms "workload.build");
  put layer "workload.alloc_mb" "MB" (per_call "workload.build" (fun a -> mb_of_words a.total.words));
  let run = ms "core" in
  let b =
    M.breakdown ~run ~pool_build:(1e3 *. core "pool_build") ~filter:(1e3 *. core "filter")
      ~score:(1e3 *. core "score") ~plan:(1e3 *. core "plan")
  in
  let share x = Fmt.str "%.1f%% of core.slrh_run_ms" (100. *. M.share x run) in
  put layer "core.slrh_run_ms" "ms" run ~note:(Fmt.str "per Slrh.run, %d calls" (acc_of "core").calls);
  put layer "core.alloc_mb_per_run" "MB" (per_call "core" (fun a -> mb_of_words a.total.words));
  put layer "core.plan_ms" "ms" b.M.plan ~note:(share b.M.plan);
  put layer "core.score_ms" "ms" b.M.score ~note:(share b.M.score);
  put layer "core.pool_build_ms" "ms" (b.M.pool_build_self +. b.M.filter)
    ~note:(Fmt.str "%s; self %.3f ms" (share (b.M.pool_build_self +. b.M.filter)) b.M.pool_build_self);
  put layer "core.filter_ms" "ms" b.M.filter
    ~note:(Fmt.str "%.1f%% of core.pool_build_ms" (100. *. M.share b.M.filter (b.M.pool_build_self +. b.M.filter)));
  put layer "core.unattributed_ms" "ms" b.M.unattributed ~note:(share b.M.unattributed);
  List.iter
    (fun q -> put layer ("core." ^ q) "count" (core q) ~note:"per run")
    [ "clock_steps"; "pools_built"; "candidates_scored"; "plans_attempted"; "assignments" ];
  put layer "core.plan_yield" "ratio" (M.share (core "assignments") (core "plans_attempted"));
  put layer "sched.validate_ms" "ms" (ms "sched.validate");
  put layer "sched.transfers" "count"
    (per_call "sched.validate" (fun a -> Option.value ~default:0. (Hashtbl.find_opt a.quantities "transfers")));
  let calls = Hashtbl.fold (fun _ a n -> n + a.calls) accs 0 in
  let sum f = Hashtbl.fold (fun _ a n -> n + f a) accs 0 in
  put layer "gc.minor_collections" "count" (float_of_int (sum (fun a -> a.total.minors)) /. float_of_int (max 1 calls))
    ~note:(Fmt.str "per traced call, %d calls" calls);
  put layer "gc.major_collections" "count" (float_of_int (sum (fun a -> a.total.majors)) /. float_of_int (max 1 calls));
  if Hashtbl.mem accs "baselines.maxmax" then put extra "baselines.maxmax_run_ms" "ms" (ms "baselines.maxmax");
  if Hashtbl.mem accs "churn.run_churn" then put extra "churn.run_churn_ms" "ms" (ms "churn.run_churn")

(* ---- output ------------------------------------------------------------ *)

let print_section title ms =
  if ms <> [] then begin
    Fmt.pr "%s@." title;
    List.iter
      (fun m ->
        Fmt.pr "  %-28s %14.6g %-6s %s@." m.name m.value m.unit_ (if m.note = "" then "" else "(" ^ m.note ^ ")"))
      (List.rev ms)
  end

let print_json ms =
  let field m = Fmt.str "%S: {\"value\": %s, \"unit\": %S}" m.name (M.json_float m.value) m.unit_ in
  Fmt.pr "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}@."
    (!failed = 0 && !messages = [] && !attempted > 0)
    !attempted !failed
    (String.concat ", " (List.map field (List.rev ms)))

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "agbench: end-to-end benchmark of agrid";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (Sys.file_exists !tmp) then Sys.mkdir !tmp 0o755;
  if !trace <> 0 && !trace <> 1 then (prerr_endline "agbench: --trace must be 0 or 1"; exit 2);
  Fmt.pr "perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s git=%s%s@." !workload !seed !seconds
    !trace (Domain.recommended_domain_count ()) Sys.ocaml_version !git (if !smoke then " smoke" else "");
  let run () =
    match !workload with
    | "paper-batch" -> paper_batch ()
    | "serve-paper" -> serve ~open_loop:false ()
    | "serve-small" -> serve ~open_loop:true ()
    | w ->
        Fmt.epr "agbench: unknown workload %S@." w;
        exit 2
  in
  (match run () with
  | () -> ()
  | exception e ->
      kill_all ();
      Fmt.epr "agbench: %s@." (Printexc.to_string e);
      exit 1);
  kill_all ();
  if !trace = 1 then layer_metrics ();
  put extra "error_rate" "ratio" (float_of_int !failed /. float_of_int (max 1 !attempted))
    ~note:(Fmt.str "%d of %d operations failed" !failed !attempted);
  print_section "end-to-end" !e2e;
  print_section "per-layer" !layer;
  print_section "report only" !extra;
  let shown = if !trace = 1 then !layer else !e2e in
  List.iter
    (fun m -> if not (Float.is_finite m.value) then messages := Fmt.str "metric %s is not finite" m.name :: !messages)
    shown;
  List.iter (fun m -> Fmt.epr "agbench: FAIL %s@." m) (List.rev !messages);
  print_json (List.filter (fun m -> Float.is_finite m.value) shown);
  if !failed > 0 || !messages <> [] then exit 1
