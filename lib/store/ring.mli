(** A partition → device consistent-hashing ring, after OpenStack
    Swift's ring builder.

    Objects hash to one of [2^part_power] {e partitions}; each
    partition is assigned [replicas] distinct {e devices}.  Devices
    carry a relative [weight] (capacity) and live in a failure [zone];
    the builder targets weight-proportional slot counts while keeping a
    partition's replicas in as many distinct zones as possible.

    Everything is a pure function of the device specs and the [seed]:
    same inputs, bit-identical assignment. *)

type spec = { node : int; zone : int; weight : float }
(** A device to place: the delay-space node it lives on, its failure
    zone, and its relative capacity. *)

type device = { id : int; node : int; zone : int; weight : float }
(** A placed device.  Ids are dense, assigned in spec order. *)

type t

val create : ?seed:int -> part_power:int -> replicas:int -> spec array -> t
(** [create ~part_power ~replicas specs] builds the ring and assigns
    every partition replica.  Raises [Invalid_argument] naming the
    offending field when [part_power] is outside [0, 20], [replicas]
    is non-positive or exceeds the device count, a [weight] is not
    positive and finite, or a [node] or [zone] is negative. *)

val parts : t -> int
val replicas : t -> int

val devices : t -> device array
(** Devices in id order. *)

val device : t -> int -> device option
(** [None] for ids outside the ring. *)

val assignment : t -> int -> int array
(** Device ids assigned to a partition (length [replicas], all
    distinct).  A copy. *)

val partition_of : t -> int -> int
(** Hash an object id to its partition.  Independent of the device
    set: rings over different devices with the same seed map objects
    to the same partitions. *)

val handoff : t -> int -> int array
(** The [get_more_nodes] walk: every device {e not} assigned to
    the partition, in a deterministic seeded order that visits one
    device from each zone missing from the partition before any
    other — so the first handoffs restore zone dispersion.  Never
    repeats an assigned device. *)

val desired_share : t -> int -> float
(** The weight-proportional slot count the builder targets for a
    device, capped at [parts] (a device holds at most one replica of a
    partition); excess is redistributed over the uncapped devices. *)
