(** A gauge: a float that can move in both directions (last-write
    wins).  Non-finite values are rejected so summaries never carry
    NaN. *)

type t

val create : unit -> t
(** Starts at 0. *)

val set : t -> float -> unit
(** Raises [Invalid_argument] on a non-finite value. *)

val value : t -> float
