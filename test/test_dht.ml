(* Tests for the Chord-like DHT with proximity neighbor selection. *)

module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Matrix = Tivaware_delay_space.Matrix
module Euclidean = Tivaware_topology.Euclidean
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Id_space = Tivaware_dht.Id_space
module Chord = Tivaware_dht.Chord
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Lookups read hop latencies through a backend over the test matrix. *)
let truth m = Backend.dense m

(* ------------------------------------------------------------------ *)
(* Id_space                                                            *)

let test_id_space_basics () =
  Alcotest.(check int) "bits" 61 Id_space.bits;
  Alcotest.(check int) "wrap" 0 (Id_space.add (Id_space.modulus - 1) 1);
  Alcotest.(check int) "distance forward" 5 (Id_space.distance_cw 10 15);
  Alcotest.(check int) "distance wrapping" (Id_space.modulus - 5)
    (Id_space.distance_cw 15 10)

let test_id_space_between () =
  Alcotest.(check bool) "inside" true (Id_space.between_cw 10 12 20);
  Alcotest.(check bool) "endpoint a" false (Id_space.between_cw 10 10 20);
  Alcotest.(check bool) "endpoint b" false (Id_space.between_cw 10 20 20);
  Alcotest.(check bool) "wrapping arc" true
    (Id_space.between_cw (Id_space.modulus - 5) 3 10)

let prop_id_space_of_node_in_range =
  qcheck "node ids in range and deterministic"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun idx ->
      let id = Id_space.of_node idx in
      id >= 0 && id < Id_space.modulus && id = Id_space.of_node idx)

let test_id_space_collision_free_smallish () =
  let seen = Hashtbl.create 4096 in
  for idx = 0 to 4095 do
    let id = Id_space.of_node idx in
    Alcotest.(check bool) "no collision among 4096 nodes" false (Hashtbl.mem seen id);
    Hashtbl.replace seen id ()
  done

(* ------------------------------------------------------------------ *)
(* Chord structure                                                     *)

let euclidean_matrix seed n =
  Euclidean.uniform_box (Rng.create seed) ~n ~dim:3 ~side_ms:200.

let test_successors_form_a_cycle () =
  let m = euclidean_matrix 1 40 in
  let c = Chord.build (Matrix.size m) in
  let visited = Array.make 40 false in
  let rec walk node steps =
    if steps > 40 then Alcotest.fail "cycle too long"
    else if visited.(node) then
      Alcotest.(check int) "cycle closes at start" 0 node
    else begin
      visited.(node) <- true;
      walk (Chord.successor c node) (steps + 1)
    end
  in
  walk 0 0;
  Alcotest.(check bool) "all nodes on the cycle" true (Array.for_all Fun.id visited)

let test_successor_is_id_order () =
  let m = euclidean_matrix 2 30 in
  let c = Chord.build (Matrix.size m) in
  (* The successor must be the node with the smallest clockwise id
     distance. *)
  for node = 0 to 29 do
    let id = Chord.node_id c node in
    let succ = Chord.successor c node in
    let succ_dist = Id_space.distance_cw id (Chord.node_id c succ) in
    for other = 0 to 29 do
      if other <> node then
        Alcotest.(check bool) "successor minimal" true
          (Id_space.distance_cw id (Chord.node_id c other) >= succ_dist)
    done
  done

let test_owner_of () =
  let m = euclidean_matrix 3 20 in
  let c = Chord.build (Matrix.size m) in
  for node = 0 to 19 do
    let id = Chord.node_id c node in
    Alcotest.(check int) "node owns its own id" node (Chord.owner_of c id);
    (* A key just past the node's id is owned by its successor. *)
    Alcotest.(check int) "key past id owned by successor" (Chord.successor c node)
      (Chord.owner_of c (Id_space.add id 1))
  done

let test_fingers_not_self () =
  let m = euclidean_matrix 4 50 in
  let c = Chord.build (Matrix.size m) in
  for node = 0 to 49 do
    Array.iter
      (fun f ->
        Alcotest.(check bool) "finger is not self" true (f <> node);
        Alcotest.(check bool) "finger valid" true (f >= 0 && f < 50))
      (Chord.fingers c node)
  done

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)

let test_lookup_reaches_owner () =
  let m = euclidean_matrix 5 60 in
  let c = Chord.build (Matrix.size m) in
  let rng = Rng.create 6 in
  for _ = 1 to 200 do
    let source = Rng.int rng 60 in
    let key = Rng.int rng Id_space.modulus in
    let l = Chord.lookup c (truth m) ~source ~key in
    Alcotest.(check int) "route ends at owner" (Chord.owner_of c key)
      l.Chord.owner;
    (match List.rev l.Chord.route with
    | last :: _ -> Alcotest.(check int) "route last = owner" l.Chord.owner last
    | [] -> Alcotest.fail "empty route");
    Alcotest.(check int) "hops = route - 1" (List.length l.Chord.route - 1)
      l.Chord.hops;
    Alcotest.(check bool) "latency non-negative" true (l.Chord.latency >= 0.)
  done

let test_lookup_logarithmic_hops () =
  let m = euclidean_matrix 7 128 in
  let c = Chord.build (Matrix.size m) in
  let rng = Rng.create 8 in
  let hops = ref [] in
  for _ = 1 to 300 do
    let l =
      Chord.lookup c (truth m) ~source:(Rng.int rng 128)
        ~key:(Rng.int rng Id_space.modulus)
    in
    hops := float_of_int l.Chord.hops :: !hops
  done;
  let mean = Stats.mean (Array.of_list !hops) in
  (* log2 128 = 7; greedy Chord averages ~ (1/2) log2 n. *)
  Alcotest.(check bool) (Printf.sprintf "mean hops %.1f bounded" mean) true
    (mean <= 8.)

let test_lookup_self_key () =
  let m = euclidean_matrix 9 20 in
  let c = Chord.build (Matrix.size m) in
  let l = Chord.lookup c (truth m) ~source:5 ~key:(Chord.node_id c 5) in
  Alcotest.(check int) "own key, zero hops" 0 l.Chord.hops;
  Alcotest.(check (float 0.)) "zero latency" 0. l.Chord.latency

let test_lookup_bad_source () =
  let m = euclidean_matrix 10 20 in
  let c = Chord.build (Matrix.size m) in
  Alcotest.check_raises "bad source" (Invalid_argument "Chord.lookup: bad source")
    (fun () -> ignore (Chord.lookup c (truth m) ~source:100 ~key:3))

let test_build_too_small () =
  Alcotest.check_raises "n < 2 names the field"
    (Invalid_argument "Chord.build: n must be >= 2 (got 1)")
    (fun () -> ignore (Chord.build 1))

let test_build_no_candidates () =
  Alcotest.check_raises "candidates < 1 names the field"
    (Invalid_argument "Chord.build: candidates must be >= 1 (got 0)")
    (fun () -> ignore (Chord.build ~candidates:0 8))

let prop_lookup_deterministic =
  qcheck ~count:30 "same lookup, same route"
    QCheck2.Gen.(pair (int_range 0 30) int)
    (fun (source, key_seed) ->
      let m = euclidean_matrix 11 31 in
      let c = Chord.build (Matrix.size m) in
      let key = Id_space.of_node (abs key_seed) in
      let a = Chord.lookup c (truth m) ~source ~key in
      let b = Chord.lookup c (truth m) ~source ~key in
      a = b)

(* ------------------------------------------------------------------ *)
(* PNS                                                                 *)

let test_pns_reduces_latency () =
  (* On a TIV-rich matrix, PNS with the measured-delay oracle must beat
     plain Chord on mean lookup latency; the owner reached must be
     identical (PNS changes the route, not the result). *)
  let data = Datasets.generate ~size:150 ~seed:12 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let plain = Chord.build (Matrix.size m) in
  let pns = Chord.build ~predict:(Matrix.get m) (Matrix.size m) in
  let rng = Rng.create 13 in
  let lat_plain = ref [] and lat_pns = ref [] in
  for _ = 1 to 400 do
    let source = Rng.int rng 150 and key = Rng.int rng Id_space.modulus in
    let a = Chord.lookup plain (truth m) ~source ~key in
    let b = Chord.lookup pns (truth m) ~source ~key in
    Alcotest.(check int) "same owner" a.Chord.owner b.Chord.owner;
    lat_plain := a.Chord.latency :: !lat_plain;
    lat_pns := b.Chord.latency :: !lat_pns
  done;
  let mean l = Stats.mean (Array.of_list l) in
  Alcotest.(check bool)
    (Printf.sprintf "PNS faster (%.0f vs %.0f ms)" (mean !lat_pns) (mean !lat_plain))
    true
    (mean !lat_pns < mean !lat_plain)

let test_pns_candidate_budget () =
  (* More candidates can only improve (or match) oracle PNS quality. *)
  let data = Datasets.generate ~size:120 ~seed:14 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let mean_latency candidates =
    let c = Chord.build ~candidates ~predict:(Matrix.get m) (Matrix.size m) in
    let rng = Rng.create 15 in
    let acc = ref 0. in
    for _ = 1 to 300 do
      let l =
        Chord.lookup c (truth m) ~source:(Rng.int rng 120)
          ~key:(Rng.int rng Id_space.modulus)
      in
      acc := !acc +. l.Chord.latency
    done;
    !acc /. 300.
  in
  let l1 = mean_latency 1 and l16 = mean_latency 16 in
  Alcotest.(check bool)
    (Printf.sprintf "16 candidates <= 1 candidate (%.0f vs %.0f)" l16 l1)
    true (l16 <= l1 +. 1e-6)

let test_pns_latency_never_negative_progress () =
  (* Route latency equals the sum of its hop delays. *)
  let data = Datasets.generate ~size:80 ~seed:18 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let c = Chord.build ~predict:(Matrix.get m) (Matrix.size m) in
  let rng = Rng.create 19 in
  for _ = 1 to 100 do
    let l =
      Chord.lookup c (truth m) ~source:(Rng.int rng 80)
        ~key:(Rng.int rng Id_space.modulus)
    in
    let rec sum acc = function
      | a :: (b :: _ as rest) ->
        let d = Matrix.get m a b in
        sum (acc +. if Float.is_nan d then 0. else d) rest
      | _ -> acc
    in
    Alcotest.(check (float 1e-6)) "latency = sum of hop delays"
      (sum 0. l.Chord.route) l.Chord.latency
  done

let test_pns_route_no_cycles () =
  let m = euclidean_matrix 20 100 in
  let c = Chord.build (Matrix.size m) in
  let rng = Rng.create 21 in
  for _ = 1 to 200 do
    let l =
      Chord.lookup c (truth m) ~source:(Rng.int rng 100)
        ~key:(Rng.int rng Id_space.modulus)
    in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun node ->
        Alcotest.(check bool) "no revisits" false (Hashtbl.mem seen node);
        Hashtbl.replace seen node ())
      l.Chord.route
  done

let test_pns_engine_oracle_equivalence () =
  (* PNS routed through a default-config measurement engine must be
     bit-for-bit the oracle PNS build: same fingers, same successors,
     same routes and latencies. *)
  let module Engine = Tivaware_measure.Engine in
  let data = Datasets.generate ~size:100 ~seed:22 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let oracle = Chord.build ~candidates:8 ~predict:(Matrix.get m) (Matrix.size m) in
  let engine = Engine.of_matrix m in
  let engined =
    Chord.build ~candidates:8 ~predict:(Engine.rtt ~label:"dht" engine)
      (Engine.size engine)
  in
  for node = 0 to 99 do
    Alcotest.(check int) "same successor" (Chord.successor oracle node)
      (Chord.successor engined node);
    Alcotest.(check (array int)) "same fingers" (Chord.fingers oracle node)
      (Chord.fingers engined node)
  done;
  let rng = Rng.create 23 in
  for _ = 1 to 200 do
    let source = Rng.int rng 100 and key = Rng.int rng Id_space.modulus in
    let a = Chord.lookup oracle (truth m) ~source ~key in
    let b = Chord.lookup engined (truth m) ~source ~key in
    Alcotest.(check int) "same owner" a.Chord.owner b.Chord.owner;
    Alcotest.(check (list int)) "same route" a.Chord.route b.Chord.route;
    Alcotest.(check (float 0.)) "same latency" a.Chord.latency b.Chord.latency
  done;
  (* The engine really served the build: one probe per prediction, no
     failures, clock untouched. *)
  let st = Engine.stats engine in
  Alcotest.(check bool) "engine probed" true (st.Tivaware_measure.Probe_stats.requests > 0);
  Alcotest.(check int) "no failures" 0 st.Tivaware_measure.Probe_stats.failed;
  Alcotest.(check (float 0.)) "clock untouched" 0. (Engine.now engine)

let test_pns_abstaining_predictor_falls_back () =
  let m = euclidean_matrix 16 40 in
  let c = Chord.build ~predict:(fun _ _ -> nan) (Matrix.size m) in
  let plain = Chord.build (Matrix.size m) in
  (* With an all-nan predictor PNS must fall back to the first arc
     candidate: lookups still terminate correctly. *)
  let rng = Rng.create 17 in
  for _ = 1 to 100 do
    let source = Rng.int rng 40 and key = Rng.int rng Id_space.modulus in
    let a = Chord.lookup c (truth m) ~source ~key in
    Alcotest.(check int) "owner correct" (Chord.owner_of plain key) a.Chord.owner
  done

let () =
  Alcotest.run "dht"
    [
      ( "id_space",
        [
          Alcotest.test_case "basics" `Quick test_id_space_basics;
          Alcotest.test_case "between" `Quick test_id_space_between;
          prop_id_space_of_node_in_range;
          Alcotest.test_case "collision-free small" `Quick test_id_space_collision_free_smallish;
        ] );
      ( "structure",
        [
          Alcotest.test_case "successor cycle" `Quick test_successors_form_a_cycle;
          Alcotest.test_case "successor minimal" `Quick test_successor_is_id_order;
          Alcotest.test_case "owner_of" `Quick test_owner_of;
          Alcotest.test_case "too small" `Quick test_build_too_small;
          Alcotest.test_case "no candidates" `Quick test_build_no_candidates;
          Alcotest.test_case "fingers valid" `Quick test_fingers_not_self;
        ] );
      ( "lookup",
        [
          Alcotest.test_case "reaches owner" `Quick test_lookup_reaches_owner;
          Alcotest.test_case "logarithmic hops" `Quick test_lookup_logarithmic_hops;
          Alcotest.test_case "self key" `Quick test_lookup_self_key;
          Alcotest.test_case "bad source" `Quick test_lookup_bad_source;
          prop_lookup_deterministic;
        ] );
      ( "pns",
        [
          Alcotest.test_case "reduces latency" `Quick test_pns_reduces_latency;
          Alcotest.test_case "candidate budget" `Quick test_pns_candidate_budget;
          Alcotest.test_case "latency accounting" `Quick test_pns_latency_never_negative_progress;
          Alcotest.test_case "routes acyclic" `Quick test_pns_route_no_cycles;
          Alcotest.test_case "abstaining predictor" `Quick test_pns_abstaining_predictor_falls_back;
          Alcotest.test_case "engine = oracle" `Quick test_pns_engine_oracle_equivalence;
        ] );
    ]
