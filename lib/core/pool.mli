(** Flat structure-of-arrays candidate-pool arena: where {!Slrh} keeps
    its pools, whichever source ({!Slrh.mode}) fills them.

    One arena lives for one {!Slrh.continue_run}: per-machine rows of
    (task, best version, best score) in ready-list order, a flat
    (task, machine) parent-bound store ({!Objective.parent_bound_into}),
    and a shared sort permutation. Each free machine's row is rebuilt
    every timestep; with no commit in between, that rebuild touches no
    allocating operation at all, which is what the allocation-budget
    suite pins. *)

open Agrid_workload

module Flat : sig
  type row = {
    tasks : int array;  (** pool task ids, ready-list order *)
    versions : Version.t array;  (** best version per slot *)
    scores : float array;  (** best score per slot *)
    mutable count : int;  (** live slots *)
  }

  type t = {
    memo : Feasibility.Memo.t;  (** energy admission bounds *)
    n_machines : int;
    n_tasks : int;
    rows : row array;  (** one per machine *)
    bound_ready : int array;
        (** [task * n_machines + machine] -> parent-ready floor *)
    bound_comm : float array;
        (** [task * n_machines + machine] -> incoming comm energy *)
    bound_known : Bytes.t;  (** ['\001'] once the slot above is priced *)
    order : int array;  (** shared sort permutation, length [n_tasks] *)
  }

  val create : feas_mode:Feasibility.mode -> Workload.t -> t
  (** Build an arena for one run. Every row holds |T| slots — no pool can
      exceed the task count — so no rebuild ever grows one. *)

  val fill_from_list : row -> int list -> unit
  (** Copy a list-built pool (the rescan reference's) into the row,
      setting [count]. *)

  val sort : t -> row -> int -> unit
  (** Write into the shared [order] scratch the permutation of the first
      [n] slots sorted by (score desc, task asc) — the rescan
      reference's [List.sort] order, allocation-free. Rows keep their
      fill order. *)
end
