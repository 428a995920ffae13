(** Per-plane probe-token arbitration.

    {!Budget} bounds how many probes a node (and the engine as a
    whole) may inject, but it is blind to {e who} is asking: a
    background maintenance plane (Chord stabilization, ring repair)
    and foreground traffic (lookups, queries) drain the same buckets,
    so a chatty background protocol can starve the traffic it exists
    to serve — or vice versa.  An arbiter carves one probe allowance
    into weighted per-plane token buckets, checked {e before} a caller
    issues its probe through the engine.  Reservations are strict (no
    borrowing across planes), so the probe volume each plane can
    generate is a deterministic function of [(capacity, rate, shares)]
    and the admission times — which is what makes interval/budget
    sweeps replayable.

    The arbiter is advisory: callers ask {!admit} and skip the probe
    on refusal.  It deliberately lives outside the {!Engine} hot path;
    an engine-level {!Budget} can still cap the aggregate underneath
    it. *)

type config = {
  capacity : float;  (** total burst size, split across planes *)
  rate : float;  (** total tokens per logical second, split likewise *)
  shares : (string * float) list;
      (** [(plane, weight)]: each plane's carve is its weight over the
          weight sum.  Planes not listed are never refused. *)
}

val config : capacity:float -> rate:float -> shares:(string * float) list -> config


type t

val create : config -> t
(** Every carve starts full.  Raises [Invalid_argument] naming
    [Arbiter.create] when the capacity or rate is negative or NaN, a
    weight is non-positive or NaN, a plane is listed twice, no plane is
    listed, or a plane's carved capacity is below one token (a deny-all
    carve). *)

val admit : t -> now:float -> string -> bool
(** [admit t ~now plane] refills the plane's carve up to [now]
    (logical seconds, monotonic per plane) and withdraws one token.
    [false] (and no withdrawal) when the carve is empty.  A plane
    without a share is always admitted — arbitration only governs the
    planes the config names. *)
