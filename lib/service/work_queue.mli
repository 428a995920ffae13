(** A bounded multi-producer multi-consumer work queue over stdlib
    [Mutex]/[Condition] — the hand-off between the service driver and
    its worker domains.

    Blocking discipline: {!push} waits while the queue is at capacity,
    {!pop} waits while it is empty.  {!close} ends the stream: blocked
    consumers drain whatever remains and then receive [None]; blocked
    and later producers fail with [Invalid_argument].  Closing is how
    the driver guarantees worker shutdown — a worker loop
    [while pop q <> None] terminates exactly when the queue is closed
    and drained, never sooner. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Default capacity 64; raises [Invalid_argument] when < 1. *)

val push : 'a t -> 'a -> unit
(** Blocks while full.  Raises [Invalid_argument] if the queue is (or
    is closed while) waiting. *)

val pop : 'a t -> 'a option
(** Blocks while empty and open.  [None] once the queue is closed and
    drained — remaining items are always delivered first. *)

val close : 'a t -> unit
(** Idempotent.  Wakes every blocked producer and consumer. *)

