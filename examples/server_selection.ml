(* CDN-style server selection with Meridian.

   A pool of replica servers participates in a Meridian overlay; each
   client asks a random Meridian node for the closest replica.  We
   compare plain Meridian against TIV-aware Meridian (dual ring
   placement + query restart, Section 5.3) and report the extra delay
   clients pay over the optimal replica, plus probing overhead.

   Run with:  dune exec examples/server_selection.exe *)

module Rng = Tivaware_util.Rng
module Cdf = Tivaware_util.Cdf
module Matrix = Tivaware_delay_space.Matrix
module Engine = Tivaware_measure.Engine
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Ring = Tivaware_meridian.Ring
module System = Tivaware_vivaldi.System
module Experiment = Tivaware_core.Experiment
module Selectors = Tivaware_core.Selectors
module Penalty = Tivaware_core.Penalty

let () =
  let data = Datasets.generate ~size:240 ~seed:31 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let cfg = Ring.default_config in
  let replicas = 120 in

  (* An independent Vivaldi embedding supplies the TIV alerts. *)
  let vivaldi = Selectors.embed_vivaldi (Rng.create 32) m in
  let predicted i j = System.predicted vivaldi i j in

  let original =
    Experiment.run_meridian (Rng.create 33) m ~runs:3 ~meridian_count:replicas
      ~build:(Selectors.meridian_build m cfg) ()
  in
  let engine = Engine.of_matrix m in
  let aware =
    Experiment.run_meridian (Rng.create 33) m ~runs:3 ~meridian_count:replicas
      ~build:(Selectors.meridian_build_tiv_aware engine cfg ~predicted)
      ~fallback:(Selectors.meridian_fallback_tiv_aware engine ~predicted ()) ()
  in

  let show name (r : Experiment.meridian_result) =
    Printf.printf "%-22s %s\n" name (Penalty.summarize r.Experiment.base.Experiment.penalties);
    Printf.printf "%-22s   probes=%d over %d queries (%.1f per query)\n" ""
      r.Experiment.probes r.Experiment.queries
      (float_of_int r.Experiment.probes /. float_of_int (max 1 r.Experiment.queries))
  in
  show "Meridian (original)" original;
  show "Meridian (TIV-aware)" aware;

  let overhead =
    100.
    *. float_of_int (aware.Experiment.probes - original.Experiment.probes)
    /. float_of_int original.Experiment.probes
  in
  Printf.printf "\nprobe overhead of TIV awareness: %+.1f%%\n" overhead;

  (* Penalty CDF at a few thresholds, CDN-operator style. *)
  let cdf = Cdf.of_samples aware.Experiment.base.Experiment.penalties in
  let cdf0 = Cdf.of_samples original.Experiment.base.Experiment.penalties in
  Printf.printf "\n%-14s %12s %12s\n" "penalty <=" "original" "tiv-aware";
  List.iter
    (fun t ->
      Printf.printf "%-14s %12.3f %12.3f\n"
        (Printf.sprintf "%g%%" t) (Cdf.eval cdf0 t) (Cdf.eval cdf t))
    [ 0.; 5.; 20.; 50.; 100.; 500. ]
