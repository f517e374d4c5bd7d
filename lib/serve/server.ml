(* The scenario service. Concurrency layout:

   - producers (stdin/socket reader) call submit, which parses, assigns
     an id and try_pushes onto the bounded Chan — never blocking; a full
     buffer becomes a typed queue_full response (backpressure);
   - one controller domain runs Parallel.run_workers over `workers`
     persistent worker loops, each popping jobs until seal/close;
   - `lock` guards all mutable counters and every pool-sink operation
     (sinks are single-domain; the mutex serializes producer and worker
     access), `idle` signals outstanding = 0, `out_lock` serializes
     respond callbacks. Lock order: out_lock before lock, never the
     reverse. *)

module Sink = Agrid_obs.Sink
module Window = Agrid_obs.Window
module Trace = Agrid_obs.Trace
module Chan = Agrid_par.Parallel.Chan

type entry = {
  e_id : int;
  e_tag : string option;
  e_spec : Job.spec;
  e_submitted : float;
  e_respond : string -> unit;
}

(* Per-tenant admission bookkeeping (guarded by t.lock): outstanding
   jobs now queued or running, lifetime high-water of that count, and
   lifetime quota rejections. *)
type tenant_state = {
  tn_cap : int;
  mutable tn_outstanding : int;
  mutable tn_high_water : int;
  mutable tn_rejected : int;
}

type t = {
  workers : int;
  job_stride : int;
  obs : Sink.t;
  trace : Trace.t option;  (* request tracing, opt-in like the ledger *)
  tenants : (string, tenant_state) Hashtbl.t;
      (* admission caps from [?tenant_caps]; tenants not listed here are
         never capped *)
  window : Window.t;  (* rolling last-60s stats, guarded by [lock] *)
  chan : entry Chan.t;
  lock : Mutex.t;
  idle : Condition.t;
  out_lock : Mutex.t;
  started_at : float;
  mutable next_id : int;
  mutable outstanding : int;  (* accepted jobs queued or in flight *)
  mutable accepted : int;
  mutable completed : int;
  mutable deadline_missed : int;
  mutable errored : int;
  mutable queue_full : int;
  mutable malformed : int;
  mutable draining : int;
  mutable tenant_quota : int;
  mutable dropped : int;
  mutable health : int;
  mutable stats_reqs : int;
  mutable respond_errors : int;
  mutable controller : unit Domain.t option;
  mutable state : [ `Created | `Running | `Stopped ];
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let latency_bounds = [| 0.001; 0.005; 0.02; 0.1; 0.5; 2.; 10. |]

let create ?(obs = Sink.noop) ?trace ?(tenant_caps = []) ?(job_stride = 8)
    ?workers ?(queue_capacity = 64) () =
  let workers =
    match workers with Some w -> w | None -> Agrid_par.Parallel.default_domains ()
  in
  if workers < 1 then invalid_arg "Server.create: workers must be >= 1";
  if job_stride < 1 then invalid_arg "Server.create: job_stride must be >= 1";
  let tenants = Hashtbl.create 8 in
  List.iter
    (fun (name, cap) ->
      if name = "" then invalid_arg "Server.create: empty tenant id";
      if cap < 1 then invalid_arg "Server.create: tenant cap must be >= 1";
      if Hashtbl.mem tenants name then
        invalid_arg ("Server.create: duplicate tenant cap for " ^ name);
      Hashtbl.add tenants name
        { tn_cap = cap; tn_outstanding = 0; tn_high_water = 0; tn_rejected = 0 })
    tenant_caps;
  {
    workers;
    job_stride;
    obs;
    trace;
    tenants;
    window = Window.create ();
    chan = Chan.create ~capacity:queue_capacity;
    lock = Mutex.create ();
    idle = Condition.create ();
    out_lock = Mutex.create ();
    started_at = Agrid_obs.Clock.now_s ();
    next_id = 0;
    outstanding = 0;
    accepted = 0;
    completed = 0;
    deadline_missed = 0;
    errored = 0;
    queue_full = 0;
    malformed = 0;
    draining = 0;
    tenant_quota = 0;
    dropped = 0;
    health = 0;
    stats_reqs = 0;
    respond_errors = 0;
    controller = None;
    state = `Created;
  }

(* Serialize every response; a respond that raises (client hung up) is
   counted, not propagated — it must not kill a worker domain. *)
let send t respond line =
  let failed =
    with_lock t.out_lock (fun () ->
        match respond line with () -> false | exception _ -> true)
  in
  if failed then with_lock t.lock (fun () -> t.respond_errors <- t.respond_errors + 1)

let obs_incr t name = if Sink.enabled t.obs then Sink.incr t.obs name

let tenant_of t (spec : Job.spec) =
  match spec.Job.tenant with
  | None -> None
  | Some name -> Hashtbl.find_opt t.tenants name

(* Release a capped tenant's admission slot (caller holds t.lock). *)
let tenant_release t (spec : Job.spec) =
  match tenant_of t spec with
  | None -> ()
  | Some ts -> ts.tn_outstanding <- ts.tn_outstanding - 1

(* Record a trace event for an entry (caller holds t.lock). A relayed job
   carries the router's trace id; locally submitted jobs derive their
   own from the collector's nonce. *)
let trace_ev t (e : entry) kind =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.record ?id:e.e_spec.Job.trace_id tr ~job:e.e_id kind

(* callers hold t.lock *)
let finish_one t =
  t.outstanding <- t.outstanding - 1;
  if t.outstanding = 0 then Condition.broadcast t.idle

let run_entry t e =
  let job_sink =
    if Sink.enabled t.obs then Sink.create ~stride:t.job_stride () else Sink.noop
  in
  if t.trace <> None then
    with_lock t.lock (fun () ->
        trace_ev t e
          (Trace.Exec { queue_wait_s = Agrid_obs.Clock.now_s () -. e.e_submitted }));
  let res = Job.run ~obs:job_sink e.e_spec in
  let latency = Agrid_obs.Clock.now_s () -. e.e_submitted in
  send t e.e_respond (Codec.result_line ~id:e.e_id ~tag:e.e_tag ~latency_s:latency res);
  with_lock t.lock (fun () ->
      t.completed <- t.completed + 1;
      let status_counter =
        match res.Job.status with
        | Job.Ok_done -> "serve/completed"
        | Job.Deadline_missed ->
            t.deadline_missed <- t.deadline_missed + 1;
            "serve/deadline_missed"
        | Job.Errored _ ->
            t.errored <- t.errored + 1;
            "serve/errored"
      in
      let now = Agrid_obs.Clock.now_s () in
      Window.incr t.window ~now "completed";
      Window.observe t.window ~now "latency_s" ~bounds:latency_bounds latency;
      trace_ev t e (Trace.Respond { outcome = Job.status_to_string res.Job.status });
      if Sink.enabled t.obs then begin
        Sink.merge_into ~into:t.obs job_sink;
        Sink.incr t.obs status_counter;
        Sink.observe t.obs "serve/latency_s" ~bounds:latency_bounds latency
      end;
      tenant_release t e.e_spec;
      finish_one t)

let rec worker_loop t =
  match Chan.pop t.chan with
  | None -> ()
  | Some e ->
      run_entry t e;
      worker_loop t

let start t =
  with_lock t.lock (fun () ->
      match t.state with
      | `Running -> ()
      | `Stopped -> invalid_arg "Server.start: already shut down"
      | `Created ->
          t.state <- `Running;
          t.controller <-
            Some
              (Domain.spawn (fun () ->
                   Agrid_par.Parallel.run_workers ~domains:t.workers ~n:t.workers
                     (fun _ -> worker_loop t))))

let health_payload t ~id =
  with_lock t.lock (fun () ->
      t.health <- t.health + 1;
      obs_incr t "serve/health";
      Codec.health_line ~id
        ~uptime_s:(Agrid_obs.Clock.now_s () -. t.started_at)
        ~queue_depth:(Chan.length t.chan) ~workers:t.workers ~accepted:t.accepted
        ~completed:t.completed)

let stats_payload t ~id =
  with_lock t.lock (fun () ->
      t.stats_reqs <- t.stats_reqs + 1;
      obs_incr t "serve/stats";
      let now = Agrid_obs.Clock.now_s () in
      let q p =
        match Window.merged_hist t.window ~now "latency_s" with
        | None -> Float.nan
        | Some h -> Agrid_obs.Hist.quantile h p
      in
      let trace_events, trace_dropped, trace_exemplars =
        match t.trace with
        | None -> (0, 0, 0)
        | Some tr ->
            (Trace.length tr, Trace.dropped tr, List.length (Trace.exemplars tr))
      in
      Codec.stats_line
        {
          Codec.ss_role = "serve";
          ss_id = id;
          ss_uptime_s = now -. t.started_at;
          ss_queue_depth = Chan.length t.chan;
          ss_in_flight = t.outstanding;
          ss_workers = t.workers;
          ss_accepted = t.accepted;
          ss_completed = t.completed;
          ss_window_s = Window.window_s t.window;
          ss_rate = Window.rate t.window ~now "completed";
          ss_p50_s = q 0.5;
          ss_p95_s = q 0.95;
          ss_p99_s = q 0.99;
          ss_backends = [];
          ss_trace_events = trace_events;
          ss_trace_dropped = trace_dropped;
          ss_trace_exemplars = trace_exemplars;
        })

let submit t ~respond line =
  let id =
    with_lock t.lock (fun () ->
        let id = t.next_id in
        t.next_id <- id + 1;
        id)
  in
  match Codec.parse_request line with
  | Error detail ->
      with_lock t.lock (fun () ->
          t.malformed <- t.malformed + 1;
          obs_incr t "serve/malformed");
      send t respond (Codec.rejected_line ~id ~reason:`Malformed ~detail ())
  | Ok Codec.Health -> send t respond (health_payload t ~id)
  | Ok Codec.Stats -> send t respond (stats_payload t ~id)
  | Ok (Codec.Submit spec) -> (
      (* Reserve the tenant's admission slot before touching the queue so
         a capped tenant can never overshoot, even with racing producers;
         a queue rejection below hands the slot back. *)
      let quota_cap =
        with_lock t.lock (fun () ->
            match tenant_of t spec with
            | None -> None
            | Some ts ->
                if ts.tn_outstanding >= ts.tn_cap then begin
                  ts.tn_rejected <- ts.tn_rejected + 1;
                  t.tenant_quota <- t.tenant_quota + 1;
                  obs_incr t "serve/tenant_quota";
                  Some ts.tn_cap
                end
                else begin
                  ts.tn_outstanding <- ts.tn_outstanding + 1;
                  if ts.tn_outstanding > ts.tn_high_water then
                    ts.tn_high_water <- ts.tn_outstanding;
                  None
                end)
      in
      match quota_cap with
      | Some cap ->
          send t respond
            (Codec.rejected_line ~tag:spec.Job.tag ~id ~reason:`Tenant_quota
               ~detail:
                 (Fmt.str "tenant %S at its admission cap (%d outstanding)"
                    (Option.value spec.Job.tenant ~default:"") cap)
               ())
      | None -> (
          let e =
            {
              e_id = id;
              e_tag = spec.Job.tag;
              e_spec = spec;
              e_submitted = Agrid_obs.Clock.now_s ();
              e_respond = respond;
            }
          in
          match Chan.try_push t.chan e with
          | `Accepted depth ->
              with_lock t.lock (fun () ->
                  t.outstanding <- t.outstanding + 1;
                  t.accepted <- t.accepted + 1;
                  trace_ev t e Trace.Enqueue;
                  if Sink.enabled t.obs then begin
                    Sink.incr t.obs "serve/accepted";
                    Sink.max_gauge t.obs "serve/queue_depth" (float_of_int depth)
                  end)
          | `Rejected `Full ->
              with_lock t.lock (fun () ->
                  tenant_release t spec;
                  t.queue_full <- t.queue_full + 1;
                  obs_incr t "serve/queue_full");
              send t respond
                (Codec.rejected_line ~tag:spec.Job.tag ~id ~reason:`Queue_full
                   ~detail:
                     (Fmt.str "queue at capacity (%d queued)" (Chan.length t.chan))
                   ())
          | `Rejected `Closed ->
              with_lock t.lock (fun () ->
                  tenant_release t spec;
                  t.draining <- t.draining + 1;
                  obs_incr t "serve/draining");
              send t respond
                (Codec.rejected_line ~tag:spec.Job.tag ~id ~reason:`Draining
                   ~detail:"server is shutting down" ())))

let quiesce t =
  with_lock t.lock (fun () ->
      while t.outstanding > 0 do
        Condition.wait t.idle t.lock
      done)

let join_pool t =
  let controller = with_lock t.lock (fun () ->
      let c = t.controller in
      t.controller <- None;
      t.state <- `Stopped;
      c)
  in
  Option.iter Domain.join controller

let drain t =
  (match with_lock t.lock (fun () -> t.state) with
  | `Created -> start t
  | `Running | `Stopped -> ());
  Chan.seal t.chan;
  quiesce t;
  join_pool t

let stop t =
  let abandoned = Chan.close t.chan in
  List.iter
    (fun e ->
      with_lock t.lock (fun () ->
          t.dropped <- t.dropped + 1;
          obs_incr t "serve/dropped";
          trace_ev t e (Trace.Respond { outcome = "dropped" });
          tenant_release t e.e_spec;
          finish_one t);
      send t e.e_respond (Codec.dropped_line ~id:e.e_id ~tag:e.e_tag))
    abandoned;
  quiesce t;
  join_pool t;
  List.length abandoned

type stats = {
  s_requests : int;
  s_accepted : int;
  s_completed : int;
  s_deadline_missed : int;
  s_errored : int;
  s_queue_full : int;
  s_malformed : int;
  s_draining : int;
  s_tenant_quota : int;
  s_dropped : int;
  s_health : int;
  s_stats : int;
  s_respond_errors : int;
  s_queue_high_water : int;
}

let stats t =
  with_lock t.lock (fun () ->
      {
        s_requests = t.next_id;
        s_accepted = t.accepted;
        s_completed = t.completed;
        s_deadline_missed = t.deadline_missed;
        s_errored = t.errored;
        s_queue_full = t.queue_full;
        s_malformed = t.malformed;
        s_draining = t.draining;
        s_tenant_quota = t.tenant_quota;
        s_dropped = t.dropped;
        s_health = t.health;
        s_stats = t.stats_reqs;
        s_respond_errors = t.respond_errors;
        s_queue_high_water = Chan.high_water t.chan;
      })

let tenant_lookup t name f =
  with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.tenants name with None -> 0 | Some ts -> f ts)

let tenant_outstanding t name = tenant_lookup t name (fun ts -> ts.tn_outstanding)
let tenant_high_water t name = tenant_lookup t name (fun ts -> ts.tn_high_water)
let tenant_rejected t name = tenant_lookup t name (fun ts -> ts.tn_rejected)
let tenant_cap t name = tenant_lookup t name (fun ts -> ts.tn_cap)

let queue_depth t = Chan.length t.chan
let n_workers t = t.workers
let uptime_s t = Agrid_obs.Clock.now_s () -. t.started_at
let trace t = t.trace

let pp_stats ppf s =
  Fmt.pf ppf
    "requests %d accepted %d completed %d (deadline_missed %d errored %d) \
     rejected (full %d malformed %d draining %d tenant_quota %d) dropped %d \
     health %d stats %d respond_errors %d queue_high_water %d"
    s.s_requests s.s_accepted s.s_completed s.s_deadline_missed s.s_errored
    s.s_queue_full s.s_malformed s.s_draining s.s_tenant_quota s.s_dropped
    s.s_health s.s_stats s.s_respond_errors s.s_queue_high_water
