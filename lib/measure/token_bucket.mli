(** A token bucket refilled continuously against a logical clock.

    The one refill-to-capacity rule behind both {!Budget} (per-node and
    engine-wide probe budgets) and {!Arbiter} (per-plane carves):
    tokens accrue at [rate] per logical second up to [capacity], lazily
    materialized whenever the bucket is consulted at a later time.  A
    capacity of [infinity] never runs dry. *)

type t

val create : capacity:float -> rate:float -> t
(** A full bucket, last refilled at time 0. *)

val take : t -> now:float -> bool
(** Refill to [now] (accrue [rate * (now - last)] tokens, capped at the
    capacity; times at or before the last refill change nothing), then
    withdraw one token; [false] (and no withdrawal) when less than one
    token is available. *)

val take_pair : t -> t -> now:float -> bool
(** {!take} from two buckets at once (a per-node bucket and the
    engine-wide one): both refill to [now], and one token is withdrawn
    from each only when each holds one, so a refusal drains neither. *)
