(** Seeded node churn: alternating up/down lifetimes.

    A churn model picks a deterministic subset of nodes (the churning
    fraction) and gives each an independent schedule of exponential
    up/down lifetimes, all derived from [(seed, node)].  Driving the
    model to a time [T] yields the same up/down state no matter how the
    clock got there — one jump or many small steps — so event-driven
    (via [Sim.on_advance] slaving the engine clock) and synchronous
    (per-round [Engine.advance]) drivers see identical outage windows.

    The model does not deliver probes itself: {!drive} mirrors the
    schedule into a {!Fault} injector's node-outage set
    ({!Fault.set_down}), which the {!Engine} consults on every request —
    so a node in its down window never answers probes, and rejoins
    exactly when its down lifetime expires.

    Churning nodes wait on a heap keyed by their next toggle, so moving
    the clock costs O(due toggles × log churning nodes), not O(nodes),
    and only the nodes that toggled are written back into the
    injector. *)

type config = {
  fraction : float;  (** share of nodes subject to churn, in [0, 1] *)
  mean_up : float;  (** mean up-lifetime in logical seconds (> 0) *)
  mean_down : float;  (** mean down-lifetime in logical seconds (> 0) *)
  seed : int;  (** schedule seed, independent of the fault seed *)
}

val default : config
(** 20% of nodes churning, 60 s mean up, 10 s mean down, seed 0. *)

val validate_config : string -> config -> unit
(** Raises [Invalid_argument] with a [ctx]-prefixed message on NaN or
    out-of-range fields. *)

type t

val create : ?config:config -> n:int -> unit -> t
(** All nodes start up; each churning node's first failure arrives
    after one exponential up-lifetime.  Raises [Invalid_argument] on an
    invalid config. *)

val config : t -> config

val churning : t -> int -> bool
(** Whether the node belongs to the churning subset. *)

val is_up : t -> int -> bool
(** Node state at the schedule's current time (non-churning nodes are
    always up). *)

val transitions : t -> int
(** Total up/down toggles processed so far. *)

val drive : t -> Fault.t -> time:float -> unit
(** The one way to move the schedule: advance its clock to [time]
    (monotonic; earlier times only flush), then mirror into the
    injector's outage set the state of every churning node that toggled
    since the last [drive] — all churning nodes on the first call, so
    [drive c fault ~time:0.] on a fresh model installs its initial
    state.  The {!Engine} calls it on every clock movement. *)
