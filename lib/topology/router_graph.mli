(** Sparse weighted router backbone graphs.

    The delay-space generator models the Internet core as a small
    weighted graph of routers; end-to-end base delays are shortest paths
    over this graph plus access-link delays.  Edge weights are round-trip
    milliseconds. *)

type t

val create : int -> t
(** [create n] is an edgeless graph on routers [0 .. n-1]. *)

val add_edge : t -> int -> int -> float -> unit
(** Adds an undirected edge; parallel edges are allowed (shortest paths
    use the cheapest).  Raises [Invalid_argument] on self-loops or
    non-positive weights. *)

val neighbors : t -> int -> (int * float) list

val connected : t -> bool

val shortest_paths : t -> float array array
(** All-pairs shortest path lengths (Dijkstra from each router;
    [infinity] when disconnected). *)

val random_connected :
  Tivaware_util.Rng.t -> n:int -> extra_edges:int -> weight:(unit -> float) -> t
(** Random connected graph: a random spanning tree plus [extra_edges]
    additional random edges, each weighted by [weight ()]. *)
