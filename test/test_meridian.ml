(* Tests for Meridian: rings, overlay, recursive query, misplacement
   census, TIV-aware extensions. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Euclidean = Tivaware_topology.Euclidean
module Ring = Tivaware_meridian.Ring
module Overlay = Tivaware_meridian.Overlay
module Query = Tivaware_meridian.Query
module Misplacement = Tivaware_meridian.Misplacement
module Tiv_aware = Tivaware_meridian.Tiv_aware
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine

(* The protocol entries take an engine (probing) or a backend (ground
   truth); these tests build both over a plain matrix. *)
let oracle m = Engine.of_matrix m
let truth m = Backend.dense m

let qcheck ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)

let cfg = Ring.default_config

let test_ring_of_boundaries () =
  Alcotest.(check int) "below alpha" 1 (Ring.ring_of cfg 0.5);
  Alcotest.(check int) "at alpha" 1 (Ring.ring_of cfg 1.);
  Alcotest.(check int) "at alpha*s" 1 (Ring.ring_of cfg 2.);
  Alcotest.(check int) "just above alpha*s" 2 (Ring.ring_of cfg 2.01);
  Alcotest.(check int) "at 4" 2 (Ring.ring_of cfg 4.);
  Alcotest.(check int) "at 1024" 10 (Ring.ring_of cfg 1024.);
  Alcotest.(check int) "beyond outermost boundary" 11 (Ring.ring_of cfg 5000.)

let test_unlimited_config () =
  let u = Ring.unlimited_config 500 in
  Alcotest.(check int) "capacity holds all" 500 u.Ring.k;
  Alcotest.(check int) "no secondaries needed" 0 u.Ring.l

let prop_ring_of_consistent_with_radii =
  qcheck "ring_of lands within the ring's radii"
    QCheck2.Gen.(float_range 0.01 10_000.)
    (fun d ->
      let i = Ring.ring_of cfg d in
      (* Ring i spans (alpha s^(i-1), alpha s^i]; the innermost ring
         also absorbs delays <= alpha, the outermost everything beyond
         its inner radius. *)
      let radius k = cfg.Ring.alpha *. (cfg.Ring.s ** float_of_int k) in
      (i = cfg.Ring.rings || d <= radius i) && (i = 1 || d > radius (i - 1)))

(* ------------------------------------------------------------------ *)
(* Overlay                                                             *)

let euclidean_matrix seed n =
  Euclidean.uniform_box (Rng.create seed) ~n ~dim:3 ~side_ms:300.

let build_overlay ?edge_filter ?placement seed m count =
  let rng = Rng.create seed in
  let nodes = Rng.sample_indices rng ~n:(Matrix.size m) ~k:count in
  (Overlay.build ?edge_filter ?placement rng (truth m) cfg ~meridian_nodes:nodes, nodes)

let test_overlay_membership () =
  let m = euclidean_matrix 1 60 in
  let overlay, nodes = build_overlay 2 m 30 in
  Alcotest.(check int) "meridian nodes" 30 (Array.length (Overlay.meridian_nodes overlay));
  Array.iter
    (fun id -> Alcotest.(check bool) "is_meridian" true (Overlay.is_meridian overlay id))
    nodes;
  let non_member = Array.to_list (Rng.permutation (Rng.create 3) 60)
                   |> List.find (fun i -> not (Overlay.is_meridian overlay i)) in
  Alcotest.(check bool) "non-member" false (Overlay.is_meridian overlay non_member)

let test_overlay_ring_placement () =
  let m = euclidean_matrix 4 50 in
  let overlay, nodes = build_overlay 5 m 25 in
  Array.iter
    (fun node ->
      for i = 1 to cfg.Ring.rings do
        List.iter
          (fun mem ->
            Alcotest.(check int) "member in its measured-delay ring" i
              (Ring.ring_of cfg mem.Overlay.delay))
          (Overlay.ring_members overlay node i)
      done)
    nodes

let test_overlay_capacity () =
  let m = euclidean_matrix 6 80 in
  let overlay, nodes = build_overlay 7 m 60 in
  Array.iter
    (fun node ->
      for i = 1 to cfg.Ring.rings do
        Alcotest.(check bool) "ring within capacity" true
          (List.length (Overlay.ring_members overlay node i)
          <= cfg.Ring.k + cfg.Ring.l)
      done)
    nodes

let test_overlay_edge_filter () =
  let m = euclidean_matrix 8 40 in
  let overlay, nodes = build_overlay 9 m 20 in
  let banned_peer = nodes.(1) and observer = nodes.(0) in
  let edge_filter a b = not ((a = observer && b = banned_peer) || (a = banned_peer && b = observer)) in
  let overlay_f, _ =
    let rng = Rng.create 9 in
    let nodes = Rng.sample_indices rng ~n:(Matrix.size m) ~k:20 in
    (Overlay.build ~edge_filter rng (truth m) cfg ~meridian_nodes:nodes, nodes)
  in
  ignore overlay;
  let members = Overlay.all_members overlay_f observer in
  Alcotest.(check bool) "banned peer filtered out" false
    (List.exists (fun mem -> mem.Overlay.id = banned_peer) members)

let test_overlay_placement_hook () =
  let m = euclidean_matrix 10 30 in
  let placement _ _ delay = [ (7, delay) ] in
  let overlay, nodes = build_overlay ~placement 11 m 15 in
  Array.iter
    (fun node ->
      for i = 1 to cfg.Ring.rings do
        if i <> 7 then
          Alcotest.(check int) "only ring 7 populated" 0
            (List.length (Overlay.ring_members overlay node i))
      done)
    nodes

let test_overlay_diverse_selection () =
  (* With a tiny ring capacity, Diverse selection must produce rings
     whose members are at least as spread out (min pairwise delay) as
     First_come's, and respect the same capacity. *)
  let m = euclidean_matrix 70 60 in
  let small = { cfg with Ring.k = 4 } in
  let rng1 = Rng.create 71 and rng2 = Rng.create 71 in
  let nodes = Rng.sample_indices (Rng.create 72) ~n:60 ~k:30 in
  let first =
    Overlay.build ~selection:Overlay.First_come rng1 (truth m) small
      ~meridian_nodes:nodes
  in
  let diverse =
    Overlay.build ~selection:Overlay.Diverse rng2 (truth m) small
      ~meridian_nodes:nodes
  in
  let min_pairwise overlay node i =
    let members = Overlay.ring_members overlay node i in
    let ids = List.map (fun mem -> mem.Overlay.id) members in
    let rec scan acc = function
      | [] -> acc
      | id :: rest ->
        scan
          (List.fold_left
             (fun acc o ->
               let d = Matrix.get m id o in
               if Float.is_nan d then acc else Float.min acc d)
             acc rest)
          rest
    in
    if List.length ids < 2 then None else Some (scan infinity ids)
  in
  let improvements = ref 0 and comparisons = ref 0 in
  Array.iter
    (fun node ->
      for i = 1 to small.Ring.rings do
        Alcotest.(check bool) "capacity respected" true
          (List.length (Overlay.ring_members diverse node i)
          <= small.Ring.k + small.Ring.l);
        match (min_pairwise first node i, min_pairwise diverse node i) with
        | Some a, Some b ->
          incr comparisons;
          if b >= a then incr improvements
        | _ -> ()
      done)
    nodes;
  Alcotest.(check bool)
    (Printf.sprintf "diversity no worse in most rings (%d/%d)" !improvements
       !comparisons)
    true
    (!comparisons = 0 || float_of_int !improvements /. float_of_int !comparisons > 0.7)

let test_overlay_full_membership () =
  let m = euclidean_matrix 12 40 in
  let u = Ring.unlimited_config 40 in
  let rng = Rng.create 13 in
  let nodes = Rng.sample_indices rng ~n:40 ~k:20 in
  let overlay = Overlay.build rng (truth m) u ~meridian_nodes:nodes in
  Array.iter
    (fun node ->
      Alcotest.(check int) "every other participant is a member" 19
        (List.length (Overlay.all_members overlay node)))
    nodes

let test_overlay_non_member_query () =
  let m = euclidean_matrix 14 20 in
  let overlay, _ = build_overlay 15 m 10 in
  Alcotest.(check bool) "ring_members of outsider raises" true
    (match Overlay.ring_members overlay 1000 1 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Query                                                               *)

let test_query_finds_good_neighbor_on_metric () =
  let m = euclidean_matrix 16 80 in
  let u = Ring.unlimited_config 80 in
  let rng = Rng.create 17 in
  let nodes = Rng.sample_indices rng ~n:80 ~k:30 in
  let overlay = Overlay.build rng (truth m) u ~meridian_nodes:nodes in
  let misses = ref 0 and total = ref 0 in
  for target = 0 to 79 do
    if not (Overlay.is_meridian overlay target) then begin
      let start = nodes.(Rng.int rng 30) in
      if Matrix.known m start target then begin
        incr total;
        let outcome =
          Query.closest ~termination:Query.Any_improvement overlay (oracle m)
            ~start ~target
        in
        match Query.optimal overlay (truth m) ~target with
        | Some (_, opt) ->
          if outcome.Query.chosen_delay > opt +. 1e-9 then incr misses
        | None -> ()
      end
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "misses %d/%d on metric space" !misses !total)
    true
    (float_of_int !misses /. float_of_int !total < 0.05)

let test_query_validation () =
  let m = euclidean_matrix 18 20 in
  let overlay, nodes = build_overlay 19 m 10 in
  let outsider =
    Array.to_list (Rng.permutation (Rng.create 20) 20)
    |> List.find (fun i -> not (Overlay.is_meridian overlay i))
  in
  Alcotest.(check bool) "non-meridian start rejected" true
    (match Query.closest overlay (oracle m) ~start:outsider ~target:nodes.(0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_query_outcome_fields () =
  let m = euclidean_matrix 21 40 in
  let overlay, nodes = build_overlay 22 m 20 in
  let target =
    Array.to_list (Rng.permutation (Rng.create 23) 40)
    |> List.find (fun i -> not (Overlay.is_meridian overlay i))
  in
  let outcome = Query.closest overlay (oracle m) ~start:nodes.(0) ~target in
  Alcotest.(check bool) "probes counted" true (outcome.Query.probes > 0);
  Alcotest.(check int) "no restarts without fallback" 0 outcome.Query.restarts;
  (match outcome.Query.path with
  | first :: _ -> Alcotest.(check int) "path starts at start" nodes.(0) first
  | [] -> Alcotest.fail "empty path");
  Alcotest.(check int) "hops = path length - 1"
    (List.length outcome.Query.path - 1) outcome.Query.hops;
  Alcotest.(check bool) "chosen is meridian" true
    (Overlay.is_meridian overlay outcome.Query.chosen)

let test_query_fallback_invoked () =
  (* Force termination, then check the fallback hook fires and its
     members are probed. *)
  let m = euclidean_matrix 24 40 in
  let overlay, nodes = build_overlay 25 m 20 in
  let target =
    Array.to_list (Rng.permutation (Rng.create 26) 40)
    |> List.find (fun i -> not (Overlay.is_meridian overlay i))
  in
  let invoked = ref 0 in
  let fallback ~current ~target:_ ~measured:_ =
    incr invoked;
    (* Return everything: guarantees at least one extra probe if any
       member exists. *)
    Overlay.all_members overlay current
  in
  let outcome = Query.closest ~fallback overlay (oracle m) ~start:nodes.(0) ~target in
  Alcotest.(check bool) "fallback invoked" true (!invoked > 0);
  Alcotest.(check bool) "restarts recorded" true (outcome.Query.restarts > 0)

let test_query_optimal_brute_force () =
  let m = euclidean_matrix 27 30 in
  let overlay, nodes = build_overlay 28 m 15 in
  let target =
    Array.to_list (Rng.permutation (Rng.create 29) 30)
    |> List.find (fun i -> not (Overlay.is_meridian overlay i))
  in
  match Query.optimal overlay (truth m) ~target with
  | None -> Alcotest.fail "expected an optimum"
  | Some (best, d) ->
    Array.iter
      (fun node ->
        if Matrix.known m node target then
          Alcotest.(check bool) "optimal is minimal" true (Matrix.get m node target >= d -. 1e-12))
      nodes;
    Alcotest.(check bool) "best is meridian" true (Overlay.is_meridian overlay best)

let prop_query_invariants =
  qcheck ~count:30 "query never returns worse than its start; probes bounded"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let m = euclidean_matrix seed 40 in
      let overlay, nodes = build_overlay (seed + 1) m 20 in
      let rng = Rng.create (seed + 2) in
      let target = Rng.int rng 40 in
      let start = nodes.(Rng.int rng 20) in
      if Overlay.is_meridian overlay target || not (Matrix.known m start target)
      then true
      else begin
        let o = Query.closest overlay (oracle m) ~start ~target in
        o.Query.chosen_delay <= Matrix.get m start target +. 1e-9
        && o.Query.probes >= o.Query.hops + 1
        && List.length o.Query.path = o.Query.hops + 1
      end)

let test_figure12_worked_example () =
  (* The paper's Figure 12 with its exact delays: A-T=12, T-N=1, A-N=25,
     A-B=11, B-T=2, B-N=4.  Plain Meridian from A must return B (2ms)
     even though N (1ms) exists; the TIV-aware restart must find N. *)
  let a = 0 and b = 1 and n = 2 and t = 3 in
  let m = Matrix.create 4 in
  Matrix.set m a t 12.;
  Matrix.set m t n 1.;
  Matrix.set m a n 25.;
  Matrix.set m a b 11.;
  Matrix.set m b t 2.;
  Matrix.set m b n 4.;
  let overlay =
    Overlay.build (Rng.create 12) (truth m) cfg ~meridian_nodes:[| a; b; n |]
  in
  let plain = Query.closest overlay (oracle m) ~start:a ~target:t in
  Alcotest.(check int) "plain Meridian returns B" b plain.Query.chosen;
  Alcotest.(check (float 1e-9)) "at 2ms" 2. plain.Query.chosen_delay;
  Alcotest.(check (list int)) "path A -> B" [ a; b ] plain.Query.path;
  (* An embedding reflecting the short alternative paths: dual ring
     placement files N into B's rings at its predicted 3ms, which lands
     in the query window at B, so N finally gets probed. *)
  let predicted i j =
    let key = (min i j, max i j) in
    if key = (a, n) then 13.
    else if key = (b, n) then 3.
    else Matrix.get m i j
  in
  let aware_overlay =
    Overlay.build
      ~placement:(Tiv_aware.placement cfg ~predicted ~engine:(oracle m) ())
      (Rng.create 12) (truth m) cfg ~meridian_nodes:[| a; b; n |]
  in
  let fallback = Tiv_aware.fallback aware_overlay ~predicted ~engine:(oracle m) () in
  let aware = Query.closest ~fallback aware_overlay (oracle m) ~start:a ~target:t in
  Alcotest.(check int) "TIV-aware finds N" n aware.Query.chosen;
  Alcotest.(check (float 1e-9)) "at 1ms" 1. aware.Query.chosen_delay

(* ------------------------------------------------------------------ *)
(* Gossip membership                                                   *)

module Gossip = Tivaware_meridian.Gossip
module Sim_g = Tivaware_eventsim.Sim

let test_gossip_converges () =
  let m = euclidean_matrix 80 60 in
  let rng = Rng.create 81 in
  let nodes = Rng.sample_indices rng ~n:60 ~k:30 in
  let sim = Sim_g.create () in
  let g = Gossip.run sim rng m ~meridian_nodes:nodes ~duration:60. in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.2f after 60s" (Gossip.coverage g))
    true
    (Gossip.coverage g > 0.9);
  Alcotest.(check bool) "messages flowed" true (Gossip.messages_sent g > 100)

let test_gossip_views_valid () =
  let m = euclidean_matrix 82 40 in
  let rng = Rng.create 83 in
  let nodes = Rng.sample_indices rng ~n:40 ~k:20 in
  let node_set = Array.to_list nodes in
  let sim = Sim_g.create () in
  let g = Gossip.run sim rng m ~meridian_nodes:nodes ~duration:20. in
  Array.iter
    (fun node ->
      Array.iter
        (fun peer ->
          Alcotest.(check bool) "never self" true (peer <> node);
          Alcotest.(check bool) "only participants" true (List.mem peer node_set))
        (Gossip.candidates_hook g node))
    nodes

let test_gossip_overlay_quality () =
  (* An overlay built only from gossiped views should answer queries
     nearly as well as one built with global knowledge. *)
  let m = euclidean_matrix 84 80 in
  let rng = Rng.create 85 in
  let nodes = Rng.sample_indices rng ~n:80 ~k:40 in
  let sim = Sim_g.create () in
  let g = Gossip.run sim rng m ~meridian_nodes:nodes ~duration:120. in
  let overlay =
    Overlay.build ~candidates:(Gossip.candidates_hook g) (Rng.create 86) (truth m) cfg
      ~meridian_nodes:nodes
  in
  let misses = ref 0 and total = ref 0 in
  Array.to_list (Rng.permutation (Rng.create 87) 80)
  |> List.iter (fun target ->
         if not (Overlay.is_meridian overlay target) then begin
           let start = nodes.(Rng.int rng 40) in
           if Matrix.known m start target then begin
             incr total;
             let outcome =
               Query.closest ~termination:Query.Any_improvement overlay (oracle m) ~start
                 ~target
             in
             match Query.optimal overlay (truth m) ~target with
             | Some (_, opt) when outcome.Query.chosen_delay > opt *. 1.2 +. 1. ->
               incr misses
             | _ -> ()
           end
         end);
  Alcotest.(check bool)
    (Printf.sprintf "gossip overlay misses %d/%d" !misses !total)
    true
    (float_of_int !misses /. float_of_int (max 1 !total) < 0.2)

(* ------------------------------------------------------------------ *)
(* Multi-target queries                                                *)

let test_multi_validation () =
  let m = euclidean_matrix 60 30 in
  let overlay, nodes = build_overlay 61 m 15 in
  Alcotest.(check bool) "empty targets rejected" true
    (match Query.closest_multi overlay (oracle m) ~start:nodes.(0) ~targets:[] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Generated worlds for the driver-agreement properties: a random
   (TIV-rich) 40-node delay matrix with a 20-node overlay.  Delays lie
   on a 10 ms grid — ties are common, as in rounded measured data — or
   in a continuous range. *)
let random_world ~grid seed =
  let rng = Rng.create seed in
  let m =
    Matrix.init 40 (fun _ _ ->
        if grid then 10. *. float_of_int (1 + Rng.int rng 30)
        else Rng.uniform rng 1. 300.)
  in
  let overlay, nodes = build_overlay (seed + 1) m 20 in
  let outsiders =
    List.filter (fun i -> not (Overlay.is_meridian overlay i)) (List.init 40 Fun.id)
  in
  (m, overlay, nodes, outsiders)

let same_outcome a b =
  a.Query.chosen = b.Query.chosen
  && Float.equal a.Query.chosen_delay b.Query.chosen_delay
  && a.Query.probes = b.Query.probes
  && a.Query.hops = b.Query.hops
  && a.Query.path = b.Query.path

let prop_multi_single_target_agrees =
  (* With one target outside the overlay, the multi query solves the
     same problem as the single-target query, probe for probe — also
     through twin lossy engines, whose fault draws must line up. *)
  qcheck ~count:30 "single target agrees"
    QCheck2.Gen.(triple (int_range 0 100_000) bool bool)
    (fun (seed, grid, lossy) ->
      let m, overlay, nodes, outsiders = random_world ~grid seed in
      let engine () =
        let fault = { Tivaware_measure.Fault.default with loss = (if lossy then 0.2 else 0.) } in
        Engine.of_matrix ~config:{ Engine.default_config with fault; seed } m
      in
      List.for_all
        (fun target ->
          let start = nodes.(target mod Array.length nodes) in
          let single = Query.closest overlay (engine ()) ~start ~target in
          let multi =
            Query.closest_multi overlay (engine ()) ~start ~targets:[ target ]
          in
          same_outcome single multi)
        outsiders)

let test_multi_leader_quality () =
  (* On a metric space with generous settings the elected leader's
     max-norm should be close to the brute-force optimum. *)
  let m = euclidean_matrix 65 80 in
  let u = Ring.unlimited_config 80 in
  let rng = Rng.create 66 in
  let nodes = Rng.sample_indices rng ~n:80 ~k:30 in
  let overlay = Overlay.build rng (truth m) u ~meridian_nodes:nodes in
  let non_members =
    Array.to_list (Rng.permutation (Rng.create 67) 80)
    |> List.filter (fun i -> not (Overlay.is_meridian overlay i))
  in
  let targets = [ List.nth non_members 0; List.nth non_members 1; List.nth non_members 2 ] in
  let outcome =
    Query.closest_multi ~termination:Query.Any_improvement overlay (oracle m)
      ~start:nodes.(0) ~targets
  in
  match Query.optimal_multi overlay (truth m) ~targets with
  | None -> Alcotest.fail "expected an optimum"
  | Some (_, opt) ->
    Alcotest.(check bool)
      (Printf.sprintf "leader within 25%% of optimum (%.1f vs %.1f)"
         outcome.Query.chosen_delay opt)
      true
      (outcome.Query.chosen_delay <= opt *. 1.25 +. 1e-9)

let test_multi_probe_accounting () =
  let m = euclidean_matrix 68 40 in
  let overlay, nodes = build_overlay 69 m 20 in
  let non_members =
    Array.to_list (Rng.permutation (Rng.create 70) 40)
    |> List.filter (fun i -> not (Overlay.is_meridian overlay i))
  in
  let targets = [ List.nth non_members 0; List.nth non_members 1 ] in
  let outcome = Query.closest_multi overlay (oracle m) ~start:nodes.(0) ~targets in
  (* Each measured node costs one probe per target. *)
  Alcotest.(check bool) "probes are a multiple of target count" true
    (outcome.Query.probes mod 2 = 0);
  Alcotest.(check bool) "at least the start probed" true (outcome.Query.probes >= 2)

(* ------------------------------------------------------------------ *)
(* Online (eventsim-driven)                                            *)

module Online = Tivaware_meridian.Online
module Sim = Tivaware_eventsim.Sim

let online_setup seed =
  let m = euclidean_matrix seed 50 in
  let overlay, nodes = build_overlay (seed + 1) m 25 in
  let client =
    Array.to_list (Rng.permutation (Rng.create (seed + 2)) 50)
    |> List.find (fun i -> not (Overlay.is_meridian overlay i))
  in
  let target =
    Array.to_list (Rng.permutation (Rng.create (seed + 3)) 50)
    |> List.find (fun i -> i <> client && not (Overlay.is_meridian overlay i))
  in
  (m, overlay, nodes, client, target)

let prop_online_matches_offline =
  (* The online replay is the same walk on a different clock: on oracle
     engines it reaches the same answer through the same path with the
     same probes as the instantaneous query, delay ties included. *)
  qcheck ~count:40 "matches offline query"
    QCheck2.Gen.(triple (int_range 0 100_000) bool bool)
    (fun (seed, grid, any) ->
      let termination = if any then Query.Any_improvement else Query.Threshold in
      let m, overlay, nodes, outsiders = random_world ~grid seed in
      let client = List.hd outsiders in
      List.for_all
        (fun target ->
          let start = nodes.(target mod Array.length nodes) in
          let offline = Query.closest ~termination overlay (oracle m) ~start ~target in
          let online =
            Online.closest ~termination (Sim.create ()) overlay (oracle m) ~client
              ~start ~target
          in
          same_outcome offline online.Online.query)
        outsiders)

let test_online_latency_positive () =
  let m, overlay, nodes, client, target = online_setup 120 in
  let start = nodes.(0) in
  let sim = Sim.create () in
  let outcome = Online.closest sim overlay (oracle m) ~client ~start ~target in
  Alcotest.(check bool) "latency strictly positive" true (outcome.Online.latency > 0.);
  (* At minimum the request reaches the start node and the start node
     probes the target. *)
  let floor = (Matrix.get m client start /. 2.) +. Matrix.get m start target in
  Alcotest.(check bool)
    (Printf.sprintf "latency %.1f >= floor %.1f" outcome.Online.latency floor)
    true
    (outcome.Online.latency >= floor -. 1e-9)

let test_online_clock_accumulates () =
  let m, overlay, nodes, client, target = online_setup 130 in
  let sim = Sim.create () in
  let o1 = Online.closest sim overlay (oracle m) ~client ~start:nodes.(0) ~target in
  let t1 = Sim.now sim in
  let o2 = Online.closest sim overlay (oracle m) ~client ~start:nodes.(1) ~target in
  ignore o1;
  ignore o2;
  Alcotest.(check bool) "clock advanced across queries" true (Sim.now sim > t1)

let test_online_validation () =
  let m, overlay, nodes, client, target = online_setup 140 in
  ignore nodes;
  let sim = Sim.create () in
  Alcotest.(check bool) "non-meridian start rejected" true
    (match Online.closest sim overlay (oracle m) ~client ~start:client ~target with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Misplacement                                                        *)

let prop_no_misplacement_on_metric =
  qcheck ~count:10 "metric spaces cause no ring misplacement"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let m = Euclidean.uniform_box (Rng.create seed) ~n:20 ~dim:3 ~side_ms:200. in
      List.for_all
        (fun (_, frac) -> frac = 0.)
        (Misplacement.misplaced_fraction_by_delay m ~beta:0.5 ~bin_width:100.))

let test_misplacement_paper_triangle () =
  (* AB=5, BC=5, CA=100 plus a 4th node to have intermediates: the
     classic example misplaces B wrt the CA edge. *)
  let m = Matrix.create 3 in
  Matrix.set m 0 1 5.;
  Matrix.set m 1 2 5.;
  Matrix.set m 2 0 100.;
  (* Pair (0,2): d=100, nodes within 50 of node 2 = {1} (d=5);
     d(0,1)=5 is outside [50,150] -> misplaced, and likewise for (2,0);
     the short edges have no node near enough to count.  So the bin of
     d=100 is entirely misplaced. *)
  let found =
    Misplacement.misplaced_fraction_by_delay m ~beta:0.5 ~bin_width:100.
    = [ (150., 1.) ]
  in
  Alcotest.(check bool) "TIV edge causes misplacement" true found

let test_misplacement_binning () =
  let data =
    Tivaware_topology.Datasets.generate ~size:80 ~seed:30 Tivaware_topology.Datasets.Ds2
  in
  let series =
    Misplacement.misplaced_fraction_by_delay data.Tivaware_topology.Generator.matrix
      ~beta:0.5 ~bin_width:100.
  in
  Alcotest.(check bool) "series non-empty" true (series <> []);
  List.iter
    (fun (_, frac) ->
      Alcotest.(check bool) "fractions in [0,1]" true (frac >= 0. && frac <= 1.))
    series;
  let xs = List.map fst series in
  Alcotest.(check bool) "sorted bins" true (List.sort compare xs = xs)

(* ------------------------------------------------------------------ *)
(* Tiv_aware                                                           *)

let entry_list = Alcotest.(list (pair int (float 1e-9)))

let test_tiv_aware_placement_dual () =
  let m = Matrix.create 4 in
  Matrix.set m 0 1 100.;
  (* Prediction says this edge is really 10ms: ratio 0.1 < ts. *)
  let predicted _ _ = 10. in
  let place = Tiv_aware.placement cfg ~predicted ~engine:(oracle m) () in
  let rings = place 0 1 100. in
  Alcotest.check entry_list "dual placement"
    [ (Ring.ring_of cfg 100., 100.); (Ring.ring_of cfg 10., 10.) ]
    rings

let test_tiv_aware_placement_safe_band () =
  let m = Matrix.create 4 in
  Matrix.set m 0 1 100.;
  let predicted _ _ = 100. in
  let place = Tiv_aware.placement cfg ~predicted ~engine:(oracle m) () in
  Alcotest.check entry_list "single placement in safe band"
    [ (Ring.ring_of cfg 100., 100.) ]
    (place 0 1 100.)

let test_tiv_aware_placement_same_ring_collapses () =
  let m = Matrix.create 4 in
  Matrix.set m 0 1 100.;
  (* Shrunk, but prediction lands in the same ring -> one entry. *)
  let predicted _ _ = 70. in
  let place = Tiv_aware.placement cfg ~predicted ~engine:(oracle m) ~ts:0.8 () in
  Alcotest.check entry_list "same ring collapses"
    [ (Ring.ring_of cfg 100., 100.) ]
    (place 0 1 100.)

let test_dual_placement_reaches_queries () =
  (* A member whose measured delay is TIV-inflated far outside the
     acceptance window must still be probed when its predicted delay
     falls inside, thanks to the dual ring entry. *)
  let m = Matrix.create 3 in
  (* start(0) - target(2): 40ms; member(1) measured 400ms from start but
     "really" ~30ms per the embedding; member-target = 5ms. *)
  Matrix.set m 0 2 40.;
  Matrix.set m 0 1 400.;
  Matrix.set m 1 2 5.;
  let nodes = [| 0; 1 |] in
  let run placement =
    let overlay =
      Overlay.build ?placement (Rng.create 1) (truth m) cfg ~meridian_nodes:nodes
    in
    Query.closest overlay (oracle m) ~start:0 ~target:2
  in
  let plain = run None in
  Alcotest.(check int) "plain Meridian misses the member" 0 plain.Query.chosen;
  let predicted a b = if (min a b, max a b) = (0, 1) then 30. else Matrix.get m a b in
  let aware =
    run
      (Some
         (Tivaware_meridian.Tiv_aware.placement cfg ~predicted ~engine:(oracle m) ()))
  in
  Alcotest.(check int) "dual placement exposes the member" 1 aware.Query.chosen

let test_tiv_aware_fallback_behaviour () =
  let m = euclidean_matrix 31 30 in
  let overlay, nodes = build_overlay 32 m 15 in
  let target =
    Array.to_list (Rng.permutation (Rng.create 33) 30)
    |> List.find (fun i -> not (Overlay.is_meridian overlay i))
  in
  let node = nodes.(0) in
  let measured = Matrix.get m node target in
  (* Ratio fine -> no extra members. *)
  let fb_ok =
    Tiv_aware.fallback overlay ~predicted:(fun _ _ -> measured) ~engine:(oracle m) ()
  in
  Alcotest.(check int) "no restart when ratio healthy" 0
    (List.length (fb_ok ~current:node ~target ~measured));
  (* Shrunk prediction -> members around the predicted delay. *)
  let fb_shrunk =
    Tiv_aware.fallback overlay
      ~predicted:(fun _ _ -> measured /. 10.)
      ~engine:(oracle m) ()
  in
  let extra = fb_shrunk ~current:node ~target ~measured in
  let beta = cfg.Ring.beta in
  List.iter
    (fun mem ->
      let dp = measured /. 10. in
      Alcotest.(check bool) "members in predicted window" true
        (mem.Overlay.delay >= (1. -. beta) *. dp && mem.Overlay.delay <= (1. +. beta) *. dp))
    extra

let () =
  Alcotest.run "meridian"
    [
      ( "ring",
        [
          Alcotest.test_case "ring_of boundaries" `Quick test_ring_of_boundaries;
          Alcotest.test_case "unlimited config" `Quick test_unlimited_config;
          prop_ring_of_consistent_with_radii;
        ] );
      ( "overlay",
        [
          Alcotest.test_case "membership" `Quick test_overlay_membership;
          Alcotest.test_case "ring placement" `Quick test_overlay_ring_placement;
          Alcotest.test_case "capacity" `Quick test_overlay_capacity;
          Alcotest.test_case "edge filter" `Quick test_overlay_edge_filter;
          Alcotest.test_case "placement hook" `Quick test_overlay_placement_hook;
          Alcotest.test_case "diverse selection" `Quick test_overlay_diverse_selection;
          Alcotest.test_case "full membership" `Quick test_overlay_full_membership;
          Alcotest.test_case "outsider rejected" `Quick test_overlay_non_member_query;
        ] );
      ( "query",
        [
          Alcotest.test_case "near-perfect on metric" `Quick test_query_finds_good_neighbor_on_metric;
          Alcotest.test_case "validation" `Quick test_query_validation;
          Alcotest.test_case "outcome fields" `Quick test_query_outcome_fields;
          Alcotest.test_case "fallback invoked" `Quick test_query_fallback_invoked;
          Alcotest.test_case "optimal brute force" `Quick test_query_optimal_brute_force;
          Alcotest.test_case "figure 12 worked example" `Quick test_figure12_worked_example;
          prop_query_invariants;
        ] );
      ( "gossip",
        [
          Alcotest.test_case "converges" `Quick test_gossip_converges;
          Alcotest.test_case "views valid" `Quick test_gossip_views_valid;
          Alcotest.test_case "overlay quality" `Quick test_gossip_overlay_quality;
        ] );
      ( "multi",
        [
          Alcotest.test_case "validation" `Quick test_multi_validation;
          prop_multi_single_target_agrees;
          Alcotest.test_case "leader quality" `Quick test_multi_leader_quality;
          Alcotest.test_case "probe accounting" `Quick test_multi_probe_accounting;
        ] );
      ( "online",
        [
          prop_online_matches_offline;
          Alcotest.test_case "latency positive" `Quick test_online_latency_positive;
          Alcotest.test_case "clock accumulates" `Quick test_online_clock_accumulates;
          Alcotest.test_case "validation" `Quick test_online_validation;
        ] );
      ( "misplacement",
        [
          prop_no_misplacement_on_metric;
          Alcotest.test_case "paper triangle" `Quick test_misplacement_paper_triangle;
          Alcotest.test_case "binning" `Quick test_misplacement_binning;
        ] );
      ( "tiv_aware",
        [
          Alcotest.test_case "dual placement" `Quick test_tiv_aware_placement_dual;
          Alcotest.test_case "safe band single" `Quick test_tiv_aware_placement_safe_band;
          Alcotest.test_case "same ring collapses" `Quick test_tiv_aware_placement_same_ring_collapses;
          Alcotest.test_case "dual placement reaches queries" `Quick
            test_dual_placement_reaches_queries;
          Alcotest.test_case "fallback behaviour" `Quick test_tiv_aware_fallback_behaviour;
        ] );
    ]
