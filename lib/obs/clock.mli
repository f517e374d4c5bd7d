(** Monotonic nanosecond clock: the one clock every duration in the
    libraries reads (spans, heuristic wall times, deadlines, latencies,
    rolling windows, trace offsets). *)

external monotonic_ns : unit -> (int64[@unboxed])
  = "agrid_clock_monotonic_ns_bytecode" "agrid_clock_monotonic_ns_native"
[@@noalloc]
(** CLOCK_MONOTONIC in nanoseconds: ~tens-of-ns resolution, immune to
    wall-clock adjustments, no OCaml heap allocation on the native
    path. *)

val elapsed_seconds : since:int64 -> float
(** Seconds elapsed since a [monotonic_ns] reading. *)

val now_s : unit -> float
(** The monotonic clock in seconds, from an arbitrary origin: for
    durations, deadlines and rolling windows, never for dates. *)
