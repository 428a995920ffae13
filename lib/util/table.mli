(** Aligned plain-text tables for experiment output.

    The benchmark harness prints every reproduced figure as a table of
    series; this module handles column sizing and alignment. *)

type t

val create : header:string list -> t
val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells. *)

val to_string : t -> string
val print : t -> unit
(** Prints to stdout followed by a newline. *)
