(** Token-bucket probe budgets.

    Real measurement infrastructure cannot probe for free: per-node
    budgets bound the rate any one participant injects traffic, and an
    engine-wide bucket bounds the aggregate.  Buckets refill
    continuously against the engine's logical clock (tokens per
    second), lazily materialized at each check.  A capacity or rate of
    [infinity] disables that bound. *)

type config = {
  node_capacity : float;  (** burst size of every per-node bucket *)
  node_rate : float;  (** tokens per logical second, per node *)
  global_capacity : float;  (** engine-wide burst size *)
  global_rate : float;  (** engine-wide tokens per logical second *)
}

val per_node : capacity:float -> rate:float -> config
(** Per-node bound only; the engine-wide bucket stays unlimited. *)

val validate_config : string -> config -> unit
(** [validate_config ctx c] raises [Invalid_argument] with a
    [ctx]-prefixed descriptive message when a capacity is below one
    token (a deny-all budget) or a rate is negative or NaN. *)

type t

val create : config -> n:int -> t
(** [n] nodes; every bucket starts full.  Raises [Invalid_argument] on
    an invalid config (see {!validate_config}). *)

val config : t -> config

val try_take : t -> now:float -> int -> bool
(** [try_take t ~now node] refills both buckets up to [now] (logical
    seconds) and withdraws one token from the node's bucket and the
    global bucket.  [false] (and no withdrawal) when either is empty. *)
