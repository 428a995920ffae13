(** Gossip-based membership discovery for the Meridian overlay.

    Real Meridian nodes learn about each other through an anti-entropy
    gossip protocol rather than a global directory.  This module runs
    that protocol on the event simulator: every participant starts
    knowing a few random {e seeds}, and periodically sends a gossip
    message — a sample of the node identifiers it knows — to one random
    known peer; the message arrives half an RTT later and the recipient
    merges the sample into its own view.

    The resulting per-node membership views plug into
    {!Overlay.build}'s [?candidates] hook, giving an overlay built only
    from what each node actually discovered. *)

type config = {
  seeds : int;  (** initial contacts per node (default 3) *)
  period : float;  (** seconds between a node's gossip messages (default 1) *)
  fanout : int;  (** node ids carried per message (default 8) *)
}

type t

val run :
  ?config:config ->
  Tivaware_eventsim.Sim.t ->
  Tivaware_util.Rng.t ->
  Tivaware_delay_space.Matrix.t ->
  meridian_nodes:int array ->
  duration:float ->
  t
(** Runs the protocol for [duration] virtual seconds.  Gossip to a peer
    with no measured delay is silently dropped (unreachable peer). *)

val candidates_hook : t -> int -> int array
(** Participants discovered by a node (never includes itself), shaped
    for {!Overlay.build}'s [?candidates].  Raises [Invalid_argument] on
    a node that is not a participant. *)

val coverage : t -> float
(** Mean fraction of the other participants each node knows — 1.0 means
    full membership knowledge. *)

val messages_sent : t -> int
