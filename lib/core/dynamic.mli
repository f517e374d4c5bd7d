(** Dynamic grid events: SLRH driven through the churn engine
    ({!Agrid_churn.Engine}) — machines that leave, rejoin, lose battery
    or degrade their links mid-run, with on-the-fly rescheduling
    (extension; see DESIGN.md section 6). A permanent loss is the trace
    [Leave\@at], an outage [Leave\@from_; Rejoin\@until_]; retry policies
    live in [Agrid_churn.Retry] and Monte Carlo churn campaigns in
    [Agrid_exper.Campaign].

    Loss semantics: work survives iff it finished before the loss on a
    surviving machine and all its ancestors survive; everything else is
    rescheduled from the loss instant; energy burned by discarded work on
    surviving machines is charged as sunk cost. The engine masks absent
    machines and never renumbers the grid. *)

val slrh_runner : Slrh.params -> Slrh.outcome Agrid_churn.Engine.runner
(** The SLRH receding-horizon loop packaged as a churn-engine phase
    runner ({!Slrh.continue_run} with the engine's mask and eligibility
    filter). *)

val run_churn :
  ?policy:Agrid_churn.Retry.policy ->
  Slrh.params ->
  Agrid_workload.Workload.t ->
  Agrid_churn.Event.t list ->
  Slrh.outcome Agrid_churn.Engine.outcome
(** Run the churn engine over an arbitrary event trace with SLRH phases.
    [policy] defaults to {!Agrid_churn.Retry.default} (immediate remap,
    unbounded retries). With an empty trace this is a single uninterrupted
    SLRH run.
    @raise Invalid_argument on an inapplicable trace
    ({!Agrid_churn.Event.validate}). *)
