(** Symmetric delay matrices.

    The fundamental object of the paper: an [n x n] matrix of round-trip
    delays in milliseconds.  Storage is a flat upper-triangular float
    array; missing measurements are represented by [nan] and skipped by
    every analysis.  The diagonal is implicitly zero. *)

type t

val create : int -> t
(** [create n] is an [n x n] matrix with all off-diagonal entries
    missing. *)

val size : t -> int

val init : int -> (int -> int -> float) -> t
(** [init n f] fills entry [(i, j)], [i < j], with [f i j].  [f] may
    return [nan] for a missing measurement. *)

val get : t -> int -> int -> float
(** [get t i j] is the delay between [i] and [j]; [0.] when [i = j];
    [nan] when missing.  Symmetric by construction. *)

val set : t -> int -> int -> float -> unit
(** Sets both [(i, j)] and [(j, i)].  Raises [Invalid_argument] on the
    diagonal. *)

val is_missing : t -> int -> int -> bool

val known : t -> int -> int -> bool
(** [known t i j] is [i <> j && not (is_missing t i j)]. *)

val copy : t -> t

val map : (int -> int -> float -> float) -> t -> t
(** Applies to present entries only. *)

val iter_edges : t -> (int -> int -> float -> unit) -> unit
(** Iterates present entries with [i < j]. *)

val edge_count : t -> int
(** Number of present (unordered) edges. *)

val edges : t -> (int * int * float) array
(** Present edges with [i < j], in row-major order. *)

val delays : t -> float array
(** All present delays, one per unordered edge. *)

val neighbors : t -> int -> (int * float) list
(** Present edges incident to a node, ascending by peer index. *)

val nearest_neighbor : t -> int -> (int * float) option
(** Peer with the minimum known delay, if any measurement exists. *)

val row : t -> int -> float array
(** [row t i] is the dense row [i] ([nan] where missing, 0 at [i]). *)
