(* Extension experiments: the TIV-aware mechanisms inside the
   distributed systems the paper motivates (overlay multicast) — beyond
   the paper's own figure set. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Multicast = Tivaware_overlay.Multicast
module Engine = Tivaware_measure.Engine
module System = Tivaware_vivaldi.System
module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors
module Selectors = Tivaware_core.Selectors

let ext_multicast ctx =
  Report.section "ext-multicast" "Overlay multicast trees under TIV";
  Report.note
    "sequential joins with degree cap 6; stretch = tree delay to root / \
     direct unicast delay";
  let m = Context.matrix ctx in
  let engine = Engine.of_matrix m in
  let rng = Context.rng ctx 400 in
  let join_order = Rng.permutation rng (Matrix.size m) in
  let vivaldi = Context.vivaldi ctx in
  let aware = System.create (Context.rng ctx 401) m in
  System.run aware ~rounds:100;
  Dynamic_neighbors.run aware
    { Dynamic_neighbors.rounds_per_iteration = 100; iterations = 5 };
  let show name t =
    let metrics = Multicast.evaluate t engine in
    Printf.printf "%-24s members=%d edge=%.1fms stretch p50=%.2f p90=%.2f depth=%d\n"
      name metrics.Multicast.members metrics.Multicast.mean_edge_ms
      metrics.Multicast.median_stretch metrics.Multicast.p90_stretch
      metrics.Multicast.max_depth
  in
  let oracle =
    Multicast.build engine ~join_order
  in
  show "oracle" oracle;
  let t_vivaldi =
    Multicast.build ~predict:(System.predicted vivaldi) engine ~join_order
  in
  show "vivaldi" t_vivaldi;
  let t_aware =
    Multicast.build ~predict:(System.predicted aware) engine ~join_order
  in
  show "tiv-aware vivaldi" t_aware;
  let refresh_rng = Context.rng ctx 402 in
  let switches = ref 0 in
  for _ = 1 to 3 do
    switches :=
      !switches
      + Multicast.refresh ~predict:(System.predicted aware) t_aware
          refresh_rng engine
  done;
  show (Printf.sprintf "  + refresh (%d moves)" !switches) t_aware

let register () =
  Registry.register "ext-multicast" "Overlay multicast trees" ext_multicast
