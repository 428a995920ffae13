(** Descriptive statistics over float samples.

    Functions either take an already-sorted array ([*_sorted] variants,
    O(1) or O(log n)) or sort a private copy themselves. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val sorted_copy : float array -> float array

val percentile_sorted : float array -> float -> float
(** [percentile_sorted xs p] with [p] in [0, 100] and [xs] sorted
    ascending, using linear interpolation between order statistics.
    Raises [Invalid_argument] on the empty array. *)

val percentile : float array -> float -> float
(** As {!percentile_sorted} but sorts a copy first. *)

val median : float array -> float

val argmin : ('a -> float) -> 'a list -> ('a * float) option
(** The pick rule: the first strict minimum of [cost] over [xs] in list
    order, with its cost, or [None] when every cost is [nan].  A [nan]
    cost skips its candidate, so a cost function excludes a candidate
    by returning [nan].  [cost] is called exactly once per candidate,
    in order; the search itself allocates nothing per candidate. *)

val argmin_index : (int -> float) -> int -> (int * float) option
(** {!argmin} over the indices [0 .. n-1]: the same rule, for arrays
    and index ranges. *)

val min_max : float array -> float * float
(** Raises [Invalid_argument] on the empty array. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** unbiased sample standard deviation; 0 below two samples *)
  min : float;
  p10 : float;
  p50 : float;
  p90 : float;
  max : float;
}

val summarize : float array -> summary
(** Full summary; raises [Invalid_argument] on the empty array. *)

val pp_summary : Format.formatter -> summary -> unit
