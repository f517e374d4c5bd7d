(* Flat structure-of-arrays candidate-pool arena: the one place the
   scheduler keeps its pools ({!Slrh}).

   A boxed pool would materialise one heap structure per free machine
   per timestep: an int list for the pool, a (task, version, score)
   tuple per candidate, a sorted copy of that list, and a closure or two
   around every span. The arena replaces all of it with preallocated
   parallel arrays owned by the run:

   - per machine, a [row] of task ids, best versions and scores, filled
     in ready-list order (the order the scalar reference scores in, so
     histogram observation sequences match bit for bit);
   - one flat parent-bound store per (task, machine) — the ready floor
     and incoming communication energy of {!Objective.parent_bound_into},
     unpacked into an int array and a float array so neither lookups nor
     writes allocate;
   - one shared [order] permutation used to sort each pool by
     (score desc, task asc) without moving the rows, which keep their
     fill order.

   Every free machine's pool is rebuilt into its row at every timestep,
   as the paper forms U afresh; the arena exists so that rebuild
   allocates nothing, not to skip it. The two value caches that do pay
   for themselves live beside the rows: the admission memo
   ({!Feasibility.Memo}) and the parent-bound store above.

   A pool never holds more than every task, so each row is sized to |T|
   once, in [create], outside the timestep loop: no rebuild ever needs
   to grow one. *)

open Agrid_workload

module Flat = struct
  type row = {
    tasks : int array;  (* pool task ids, ready-list order *)
    versions : Version.t array;  (* best version per slot *)
    scores : float array;  (* best score per slot *)
    mutable count : int;  (* live slots *)
  }

  type t = {
    memo : Feasibility.Memo.t;
    n_machines : int;
    n_tasks : int;
    rows : row array;  (* one per machine *)
    bound_ready : int array;  (* task * n_machines + machine -> ready floor *)
    bound_comm : float array;  (* task * n_machines + machine -> comm energy *)
    bound_known : Bytes.t;  (* '\001' once the slot above is priced *)
    order : int array;  (* shared sort permutation, length n_tasks *)
  }

  let create ~feas_mode workload =
    let n_tasks = Workload.n_tasks workload in
    let n_machines = Workload.n_machines workload in
    let cap = max 1 n_tasks in
    {
      memo = Feasibility.Memo.create ~mode:feas_mode workload;
      n_machines;
      n_tasks;
      rows =
        Array.init n_machines (fun _ ->
            {
              tasks = Array.make cap 0;
              versions = Array.make cap Version.Primary;
              scores = Array.make cap 0.;
              count = 0;
            });
      bound_ready = Array.make (n_tasks * n_machines) min_int;
      bound_comm = Array.make (n_tasks * n_machines) 0.;
      bound_known = Bytes.make (n_tasks * n_machines) '\000';
      order = Array.init cap (fun i -> i);
    }

  (* Copy a list-built pool (the rescan reference's) into the row. *)
  let fill_from_list row pool =
    List.iteri (fun i task -> row.tasks.(i) <- task) pool;
    row.count <- List.length pool

  (* Order the first [n] pool slots by decreasing score, ties broken on
     ascending task id — the rescan reference's [List.sort] comparator. Task ids in a
     pool are distinct, so the comparator is a total order and any
     correct sort yields the one sequence [List.sort] yields; insertion
     sort keeps it allocation-free (pools stay well under a hundred).
     Writes the permutation into the shared [order] scratch; the rows
     themselves keep their fill order. *)
  let sort t row n =
    let order = t.order in
    let scores = row.scores in
    let tasks = row.tasks in
    for i = 0 to n - 1 do
      order.(i) <- i
    done;
    for i = 1 to n - 1 do
      let k = order.(i) in
      let sk = scores.(k) in
      let tk = tasks.(k) in
      let j = ref (i - 1) in
      let moving = ref true in
      while !moving do
        if !j < 0 then moving := false
        else begin
          let kj = order.(!j) in
          let c = Float.compare scores.(kj) sk in
          if c < 0 || (c = 0 && tasks.(kj) > tk) then begin
            order.(!j + 1) <- kj;
            j := !j - 1
          end
          else moving := false
        end
      done;
      order.(!j + 1) <- k
    done
end
