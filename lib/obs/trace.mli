(** A bounded ring of trace events.

    Events carry the emitting plane's label and a timestamp on whatever
    clock the caller runs (the measurement-plane engine clock
    throughout this repo, so event-driven traces line up with charged
    probe time).  When the ring is full the oldest event is dropped and
    counted, so a long run keeps its recent history without unbounded
    memory. *)

type event = {
  time : float;
  label : string;
  message : string;
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 256.  Raises [Invalid_argument] when
    [capacity < 1]. *)

val record : t -> time:float -> label:string -> string -> unit
val events : t -> event list
(** Oldest first. *)

val dropped : t -> int
(** Events displaced by the capacity bound. *)

val capacity : t -> int
