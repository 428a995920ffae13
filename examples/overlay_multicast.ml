(* Overlay multicast tree construction — the motivating application of
   the paper's introduction.  A joining node must pick a nearby existing
   member as its parent; bad picks inflate the whole tree.

   We grow degree-capped multicast trees with three neighbor selection
   mechanisms — brute-force oracle, raw Vivaldi coordinates, TIV-aware
   (dynamic-neighbor) Vivaldi — and additionally run the library's
   parent-refresh passes, comparing edge cost and root-to-member
   stretch.

   Run with:  dune exec examples/overlay_multicast.exe *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Multicast = Tivaware_overlay.Multicast
module Engine = Tivaware_measure.Engine
module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors
module System = Tivaware_vivaldi.System
module Selectors = Tivaware_core.Selectors

let show name (m : Multicast.metrics) =
  Printf.printf "%-28s %8d %12.1f %10.2f %9.2f %7d %8d\n" name
    m.Multicast.members m.Multicast.mean_edge_ms m.Multicast.median_stretch
    m.Multicast.p90_stretch m.Multicast.max_depth m.Multicast.max_fanout

let () =
  let data = Datasets.generate ~size:220 ~seed:17 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let engine = Engine.of_matrix m in
  let rng = Rng.create 23 in
  let join_order = Rng.permutation rng (Matrix.size m) in

  (* Mechanism 1: full-measurement oracle (brute-force probing). *)
  let oracle =
    Multicast.build engine ~join_order
  in

  (* Mechanism 2: raw Vivaldi coordinates. *)
  let vivaldi = Selectors.embed_vivaldi (Rng.create 24) m in
  let t_vivaldi =
    Multicast.build ~predict:(System.predicted vivaldi) engine ~join_order
  in

  (* Mechanism 3: TIV-aware dynamic-neighbor Vivaldi. *)
  let aware = Selectors.embed_vivaldi (Rng.create 24) m in
  Dynamic_neighbors.run aware
    { Dynamic_neighbors.rounds_per_iteration = 100; iterations = 5 };
  let t_aware =
    Multicast.build ~predict:(System.predicted aware) engine ~join_order
  in

  Printf.printf "%-28s %8s %12s %10s %9s %7s %8s\n" "mechanism" "members"
    "edge (ms)" "stretch50" "stretch90" "depth" "fanout";
  show "oracle (brute force)" (Multicast.evaluate oracle engine);
  show "vivaldi" (Multicast.evaluate t_vivaldi engine);
  show "tiv-aware vivaldi" (Multicast.evaluate t_aware engine);

  (* Parent refresh: three passes under each predictor. *)
  let refresh_rng = Rng.create 25 in
  let total_switches = ref 0 in
  for _ = 1 to 3 do
    total_switches :=
      !total_switches
      + Multicast.refresh ~predict:(System.predicted aware) t_aware
          refresh_rng engine
  done;
  Printf.printf "\nafter 3 refresh passes (%d parent switches):\n" !total_switches;
  show "tiv-aware + refresh" (Multicast.evaluate t_aware engine);
  print_endline
    "\nLower stretch = multicast paths closer to direct unicast.\n\
     TIV-aware neighbor sets shrink the gap to the oracle tree."
