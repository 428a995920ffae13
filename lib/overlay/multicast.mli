(** Tree-based overlay multicast — the paper's opening example of a
    system that lives or dies by neighbor selection.

    A group grows by sequential joins: each joining node asks a neighbor
    selection mechanism for the nearest existing member and attaches to
    it, subject to a per-node degree cap (as real systems impose on
    fan-out).  The resulting tree is judged by:

    - {e edge cost}: the delay of each parent link;
    - {e stretch}: each member's root-to-member delay along the tree,
      divided by its direct unicast delay to the root (RMD / unicast);
    - {e fan-out} distribution.

    The module also implements a {e parent-refresh} pass in the spirit
    of the paper's dynamic-neighbor Vivaldi: periodically each node
    ranks candidate parents on coordinates learned from its own
    measurements, measures the promising ones, drops the candidates the
    TIV alert flags, and switches to a better parent if one exists
    (cycle-safe). *)

type config = {
  max_degree : int;  (** children cap per node (default 6) *)
  refresh_sample : int;
      (** members drawn per repair candidate set, and per refresh until a
          member's coordinate converges (default 16) *)
}

val default_config : config

type t

val parent : t -> int -> int option
(** [None] for the root and for nodes that failed to join. *)

val members : t -> int list
(** Joined nodes, root included. *)

val children : t -> int -> int list
(** Current children of a member, in ascending node order — the set a
    chunk-forwarding overlay pushes to.  Empty for leaves and for
    nodes that never joined. *)

val build :
  ?config:config ->
  ?label:string ->
  ?predict:(int -> int -> float) ->
  Tivaware_measure.Engine.t ->
  join_order:int array ->
  t
(** [build engine ~join_order] grows the tree: [join_order.(0)] is the
    root; every other node attaches to the predicted-nearest member
    with spare degree.  The predictor probes through the engine,
    charged under [label] (default ["multicast"]); [predict] overrides
    it (coordinate or policy-ranked joins; any probes it issues are its
    own business).  Edge existence is "the engine's ground truth is not
    [nan]" — matrix-backed and lazy backend engines both work.  Nodes
    with no measurable candidate are left out (reported by
    {!members}); a node's later repeats in [join_order] are ignored.
    Raises [Invalid_argument] on an empty [join_order], [max_degree < 1]
    or [refresh_sample < 1]. *)

val refresh :
  ?label:string ->
  ?predict:(int -> int -> float) ->
  t ->
  Tivaware_util.Rng.t ->
  Tivaware_measure.Engine.t ->
  int
(** One refresh pass over all non-root members in random order.  A
    member switches parents when a candidate with spare degree offers a
    strictly smaller {e measured root delay} (its tree delay to the root
    plus the measured edge to it).  Descendants are excluded to keep the
    tree acyclic.  Optimizing end-to-end delay rather than the parent
    edge alone prevents refresh from collapsing the tree into long
    low-latency chains.  Root delays are measured once per pass, and a
    candidate advertising at least the member's own is not probed:
    assuming [predict] returns [>= 0] or [nan], it cannot win.  A member
    cut off from the root takes the best reachable candidate it
    measures, re-grafting its subtree.

    Each member learns, from the delays refresh itself measures, a
    3-D Vivaldi coordinate ({!Tivaware_vivaldi.System.observe_rtt}, both
    endpoints of every measurement) and a shortlist of up to 4
    candidates it measured cheapest.  Its candidates are the shortlist
    plus fresh draws from the members.  Until its coordinate's error
    estimate is below 0.5 it measures every eligible candidate among
    the shortlist and [refresh_sample] draws; from then on it ranks the
    shortlist and 8 draws by root delay plus coordinate distance and
    measures at most the 3 best predicted to beat its current cost.  A
    switch always rests on a measurement, never on a prediction.  A
    measured candidate whose prediction ratio
    ({!Tivaware_tiv.Alert.ratio}) is {!Tivaware_tiv.Alert.shrunk} at
    0.5 leaves the shortlist.  The coordinates and shortlists are made
    by the first pass; {!build} does no work for them.

    The first pass also makes the arrays every pass works in: five
    words per node and a few per candidate slot.  After that a pass
    allocates only inside the engine calls it makes (its probes and
    its edge-existence checks) and in the switches it makes, nothing
    per member: about 8.6k words for a pass over a 400-member tree on
    a cached engine, 19 per probe request.

    Same label, ground-truth and [predict] conventions as {!build}:
    [predict] replaces the measurement and the rule is otherwise the
    same.  The engine registry's [multicast.refresh.ranked_out] counts
    eligible candidates the ranking left unprobed,
    [multicast.refresh.alerted] the shrunk verdicts and
    [multicast.refresh.fallback] the members refreshed by the
    measure-every-eligible rule.  Returns the number of switches. *)

(** {2 Churn-aware tree repair} *)

type repair = {
  detached : int;  (** down members torn out of the tree *)
  reattached : int;  (** orphaned children re-parented to a live member *)
  rejoined : int;  (** revived members re-admitted to the group *)
}

val repair :
  ?label:string ->
  ?predict:(int -> int -> float) ->
  ?up:(int -> bool) ->
  t ->
  Tivaware_util.Rng.t ->
  Tivaware_measure.Engine.t ->
  repair
(** One repair pass against a liveness oracle [up] (default:
    {!Tivaware_measure.Engine.up}; no churn = everyone up): down members are
    detached (their parents' slots freed, their children orphaned),
    every orphan re-attaches to the best live member with spare degree
    among a sampled candidate set (the root is always a candidate while
    it is up, so the tree cannot fragment then), and revived members
    that still want the group rejoin the same way.  Orphans with no
    live attachment point leave the tree and rejoin on a later pass.
    The root never detaches; while it is down, repair keeps the
    surviving members attached among themselves and re-hangs them once
    it returns.  Predictions probe through the engine under [label]
    (default ["multicast-repair"]); [predict] overrides them (the
    policy hook {!Tivaware_stream} uses).  Unlike {!refresh}, a
    re-graft probes every eligible candidate: it minimises the raw
    edge, and under TIVs nothing bounds an edge from below unprobed.
    The pass's counts are added to the engine registry's
    [repair.*{plane=multicast}] counters. *)

type metrics = {
  members : int;
  mean_edge_ms : float;
  median_stretch : float;
  p90_stretch : float;
  max_depth : int;
  max_fanout : int;
}

val evaluate : t -> Tivaware_measure.Engine.t -> metrics
(** Tree quality under the engine's ground-truth delays.  Stretch is
    computed for members with a measured direct delay to the root.
    Every silent [nan] fallback — a missing parent edge (contributes
    zero to the tree path) or a member with no measurable direct root
    delay (drops out of the stretch percentiles) — increments the
    engine registry's [multicast.evaluate_failures] counter, and a
    trace event summarizes the drop count, mirroring
    [meridian.query_failures]. *)

type violation =
  | Children of int  (** the node's children are not those naming it parent *)
  | Degree of int  (** the node has more than [max_degree] children *)
  | Unreachable of int  (** the member's parent chain misses the root *)

val check : t -> violation option
(** The first violated clause: every node is checked for [Children],
    then [Degree], then every member for [Unreachable] (a parent cycle
    or a non-member ancestor).  [None] after {!build}, and after a
    {!refresh} of a tree that held [None].  {!repair} can leave
    [Unreachable] (known defect): an orphan that leaves strands the
    members below it, and a rejoin may pick a node in its old subtree. *)
