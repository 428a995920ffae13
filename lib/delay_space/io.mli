(** Plain-text persistence for delay matrices.

    Format: a header line ["tivaware-delay-matrix v1 <n>"] followed by
    one line per present edge: ["<i> <j> <delay_ms>"] with [i < j].
    Missing entries are simply absent.  The format round-trips exactly
    (delays are printed with full precision) and is easy to produce from
    external measurement data sets. *)

val save : Matrix.t -> string -> unit
(** [save m path] writes [m] to [path]. *)

val load : string -> Matrix.t
(** Raises [Failure] with a descriptive message on malformed input. *)

val load_square : ?symmetrize:[ `Min | `Max | `Mean ] -> string -> Matrix.t
(** Imports the whitespace-separated full-square-matrix format used by
    published data sets (e.g. the p2psim King matrix): [n] rows of [n]
    delay values.  Non-positive and non-numeric entries become missing.
    Asymmetric inputs are reconciled per [symmetrize] (default [`Mean]).
    Raises [Failure] on ragged input. *)

val of_square : ?symmetrize:[ `Min | `Max | `Mean ] -> float array array -> Matrix.t
(** Same reconciliation, from an in-memory square matrix ([nan] =
    missing).  Raises [Invalid_argument] on a non-square input. *)
