(** Meridian overlay construction.

    A subset of nodes participate as Meridian nodes; each one samples
    the other participants in random order and files them into its rings
    by measured delay, keeping at most [k] primary members per ring
    (we keep the first [k] sampled, a simplification of Meridian's
    hypervolume-based replacement that preserves the properties the
    paper studies).

    Hooks cover the paper's experiments: [edge_filter] drops candidate
    edges entirely (the Section 4.3 TIV-severity filter) and [placement]
    overrides ring assignment (the Section 5.3 TIV-aware dual
    placement). *)

type member = {
  id : int;
  delay : float;
      (** the delay this ring {e entry} represents: the measured delay
          for a regular placement, the predicted delay for a TIV-aware
          dual placement.  Queries select entries whose represented
          delay falls in the acceptance window. *)
}

type t

type selection =
  | First_come
      (** keep the first [k] members sampled — the simplification used
          by default *)
  | Diverse
      (** ring-membership replacement approximating Meridian's
          hypervolume rule: when a ring is full, a new candidate
          replaces an existing primary member if doing so increases the
          minimum pairwise delay among the ring's members (greater
          geographic diversity) *)

val build :
  ?edge_filter:(int -> int -> bool) ->
  ?placement:(int -> int -> float -> (int * float) list) ->
  ?selection:selection ->
  ?candidates:(int -> int array) ->
  ?candidate_budget:int ->
  Tivaware_util.Rng.t ->
  Tivaware_backend.Delay_backend.t ->
  Ring.config ->
  meridian_nodes:int array ->
  t
(** [build rng backend cfg ~meridian_nodes] constructs rings for every
    participant from the backend's delays ([nan] = unmeasurable).
    [edge_filter a b] (default: always [true]) must hold for [b] to be
    considered by [a].  [placement a b delay] (default:
    [[(Ring.ring_of cfg delay, delay)]]) returns the ring entries [b]
    occupies in [a]'s structure as [(ring index, represented delay)]
    pairs; the first entry consumes a primary slot (up to [k] per ring),
    every further entry only a secondary slot (up to [l] per ring) so
    that TIV-aware dual placement adds entries without displacing
    regular members.

    [candidates node] (default: all other participants in random order)
    restricts which peers [node] may file into its rings — e.g. the
    members it discovered through {!Gossip}.  Without [candidates],
    [candidate_budget] bounds each node's discovery to that many
    uniformly sampled peers, so ring construction over an N-node lazy
    space costs O(meridian · budget) queries rather than
    O(meridian²); a budget of at least the participant count keeps
    the full shuffle.  Raises [Invalid_argument] when the budget is
    < 1. *)

val config : t -> Ring.config
val meridian_nodes : t -> int array
val is_meridian : t -> int -> bool

val ring_members : t -> int -> int -> member list
(** [ring_members t node i]: members of [node]'s [i]-th ring. *)

val all_members : t -> int -> member list
(** Every distinct member over all of [node]'s rings (a member placed in
    two rings appears once, with its first entry's delay). *)

val all_entries : t -> int -> member list
(** Every ring entry of [node], including both entries of a dual-placed
    member. *)

(** {2 Churn-aware ring maintenance} *)

type repair = {
  evicted : int;  (** ring entries dropped because they answered no probe *)
  reentered : int;  (** rejoined members filed back into a ring *)
}

val repair_engine : ?label:string -> t -> Tivaware_measure.Engine.t -> repair
(** One ring-maintenance pass against the engine's current churn state.
    Every live Meridian node re-probes its ring entries and evicts the
    ones that answer nothing; evictions are gossiped, and on a later
    pass — once the member is back up and re-announces itself — the
    host re-probes it and files it into the ring matching its fresh
    delay, if that ring has a free primary slot.  All probes go through
    the engine (charged, budgeted) under [label] (default
    ["meridian-repair"]).  Under an oracle-mode engine the pass evicts
    nothing (and still pays its maintenance probes).  Returns eviction
    and re-entry counts for this pass. *)

val pending_reentries : t -> int
(** (host, member) evictions gossiped but not yet re-entered. *)

val mean_ring_population : t -> float array
(** Average population of each ring over all Meridian nodes. *)
