(* The arithmetic of the end-to-end benchmark, kept free of any agrid
   library so the self-test can pin it on fixed inputs: percentiles with
   the ten-beyond tail rule, the metric-name and unit charsets, the growth
   exponent, the served-latency split and the span breakdown. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile: the smallest sample with at least [q] of the
   samples at or below it. *)
let rank ~q n = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let percentile ~q a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.percentile: no samples";
  (sorted a).(rank ~q n - 1)

let median a = percentile ~q:0.5 a

let beyond ~q n = if n = 0 then 0 else n - rank ~q n

(* A tail percentile is only worth reporting when at least ten samples lie
   beyond it; otherwise one outlier decides it. *)
let tail ~q a =
  if beyond ~q (Array.length a) >= 10 then Some (percentile ~q a) else None

let mean a =
  if Array.length a = 0 then invalid_arg "Measure.mean: no samples";
  Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let is_name_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all is_name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_name_char c || c = '/' || c = '%')
       s

(* log2 of the median wall time at twice the size over the median at the
   base size: 1.0 is linear, 2.0 quadratic. *)
let growth_exponent ~small ~large = Float.log2 (median large /. median small)

(* A served job's client-side latency splits into the daemon's own
   [latency_s] (queue + run) and the rest (socket, client, encoding);
   [latency_s] splits into [wall_s] (realize + schedule) and queue wait. *)
type split = { wire_s : float; queue_s : float }

let split_served ~client_s ~latency_s ~wall_s =
  { wire_s = client_s -. latency_s; queue_s = latency_s -. wall_s }

(* The SLRH span tree: [run] contains the sibling spans pool_build, score
   and plan; pool_build contains filter. Times are totals over the same
   set of calls. *)
type breakdown = {
  run : float;
  pool_build_self : float;
  filter : float;
  score : float;
  plan : float;
  unattributed : float;
}

let breakdown ~run ~pool_build ~filter ~score ~plan =
  {
    run;
    pool_build_self = pool_build -. filter;
    filter;
    score;
    plan;
    unattributed = run -. pool_build -. score -. plan;
  }

let share part whole = if whole > 0. then part /. whole else 0.

(* JSON numbers carry every digit the float has; a non-finite value is a
   bug in the caller, never something to print. *)
let json_float x =
  if not (Float.is_finite x) then invalid_arg "Measure.json_float: non-finite";
  Printf.sprintf "%.17g" x
