(** Ready-made neighbor-selection mechanisms for the experiments.

    Each function wires one mechanism variant from the paper into the
    shapes {!Experiment} expects: a [predict : int -> int -> float]
    function for coordinate-based mechanisms, or an overlay [build]
    function for Meridian variants. *)

val embed_vivaldi :
  ?config:Tivaware_vivaldi.System.config ->
  ?rounds:int ->
  Tivaware_util.Rng.t ->
  Tivaware_delay_space.Matrix.t ->
  Tivaware_vivaldi.System.t
(** Creates a Vivaldi system and runs it to (approximate) convergence;
    default 200 rounds. *)

val embed_vivaldi_engine :
  ?config:Tivaware_vivaldi.System.config ->
  ?rounds:int ->
  Tivaware_util.Rng.t ->
  Tivaware_measure.Engine.t ->
  Tivaware_vivaldi.System.t
(** As {!embed_vivaldi}, but probing through a measurement-plane
    engine (loss/jitter/budget-aware embedding). *)

val embed_vivaldi_filtered :
  ?config:Tivaware_vivaldi.System.config ->
  ?rounds:int ->
  banned:((int * int) -> bool) ->
  Tivaware_util.Rng.t ->
  Tivaware_delay_space.Matrix.t ->
  Tivaware_vivaldi.System.t
(** As {!embed_vivaldi} but probing-neighbor edges for which [banned
    (min i j, max i j)] holds are never used (Section 4.3's global
    TIV-severity filter). *)

val vivaldi_predict : Tivaware_vivaldi.System.t -> int -> int -> float

val ides_predict : Tivaware_embedding.Ides.t -> int -> int -> float

val lat_predict : Tivaware_embedding.Lat.t -> int -> int -> float

val banned_set : (int * int) array -> (int * int) -> bool
(** Membership test over normalized [(min, max)] pairs. *)

val meridian_build :
  Tivaware_delay_space.Matrix.t ->
  Tivaware_meridian.Ring.config ->
  Tivaware_util.Rng.t ->
  int array ->
  Tivaware_meridian.Overlay.t
(** Plain Meridian overlay builder for {!Experiment.run_meridian}. *)

val meridian_build_filtered :
  Tivaware_delay_space.Matrix.t ->
  Tivaware_meridian.Ring.config ->
  banned:((int * int) -> bool) ->
  Tivaware_util.Rng.t ->
  int array ->
  Tivaware_meridian.Overlay.t
(** Overlay builder that excludes banned edges from ring construction. *)

val meridian_build_tiv_aware :
  Tivaware_measure.Engine.t ->
  Tivaware_meridian.Ring.config ->
  predicted:(int -> int -> float) ->
  ?ts:float ->
  ?tl:float ->
  Tivaware_util.Rng.t ->
  int array ->
  Tivaware_meridian.Overlay.t
(** Overlay builder with TIV-aware dual ring placement: rings are filed
    by the engine's ground truth ({!Tivaware_backend.Delay_backend.of_engine}),
    alert ratios are probed through the engine.  Matrix-backed and lazy
    engines both work. *)

val meridian_fallback_tiv_aware :
  Tivaware_measure.Engine.t ->
  predicted:(int -> int -> float) ->
  ?ts:float ->
  unit ->
  Tivaware_meridian.Overlay.t ->
  Tivaware_meridian.Query.fallback
(** Query-restart fallback probing through the engine, shaped for
    {!Experiment.run_meridian}'s [?fallback]. *)
