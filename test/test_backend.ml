(* Tests for the delay-plane backends: query semantics, dense-backend
   equivalence with the raw-matrix paths on every protocol, lazy
   per-pair determinism, the memo LRU bound, and the
   synthesized-then-densified property harness. *)

module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Euclidean = Tivaware_topology.Euclidean
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Synthesizer = Tivaware_topology.Synthesizer
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Churn = Tivaware_measure.Churn
module Store_ring = Tivaware_store.Ring
module Selection = Tivaware_tiv.Selection
module Scenario = Tivaware_store.Scenario
module System = Tivaware_vivaldi.System
module Ring = Tivaware_meridian.Ring
module Overlay = Tivaware_meridian.Overlay
module Query = Tivaware_meridian.Query
module Online = Tivaware_meridian.Online
module Sim = Tivaware_eventsim.Sim
module Eval = Tivaware_tiv.Eval
module Obs = Tivaware_obs

let checkf = Alcotest.check (Alcotest.float 1e-9)

let qcheck ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Float equality where nan = nan (the matrix contract for missing
   entries). *)
let same_delay a b = a = b || (Float.is_nan a && Float.is_nan b)

let euclidean_matrix seed n =
  Euclidean.uniform_box (Rng.create seed) ~n ~dim:3 ~side_ms:300.

let ds2_model ?(size = 150) seed =
  let data = Datasets.generate ~size ~seed Datasets.Ds2 in
  Synthesizer.analyze data.Generator.matrix

(* ------------------------------------------------------------------ *)
(* Query semantics                                                     *)

let test_dense_query () =
  let m = euclidean_matrix 1 30 in
  let b = Backend.dense m in
  Alcotest.(check int) "size" 30 (Backend.size b);
  Alcotest.(check string) "kind" "dense" (Backend.kind_name b);
  for i = 0 to 29 do
    for j = 0 to 29 do
      if i = j then checkf "diagonal" 0. (Backend.query b i j)
      else
        Alcotest.(check bool) "matches matrix" true
          (same_delay (Backend.query b i j) (Matrix.get m i j))
    done
  done;
  Alcotest.(check bool) "out of range raises" true
    (match Backend.query b 0 30 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_sparse_overrides () =
  let m = euclidean_matrix 2 10 in
  let s = Backend.sparse ~base:(Backend.dense m) ~size:10 () in
  (* Fall-through to the base. *)
  checkf "base shows through" (Matrix.get m 1 2) (Backend.query s 1 2);
  Backend.set s 1 2 7.5;
  checkf "override wins" 7.5 (Backend.query s 1 2);
  checkf "symmetric" 7.5 (Backend.query s 2 1);
  Alcotest.(check int) "one edge materialized" 1 (Backend.materialized s);
  Backend.set s 1 2 nan;
  checkf "nan removes the override" (Matrix.get m 1 2) (Backend.query s 1 2);
  (* Without a base, absent pairs are unmeasurable. *)
  let bare = Backend.sparse ~size:5 () in
  Alcotest.(check bool) "no base = nan" true
    (Float.is_nan (Backend.query bare 0 1));
  Backend.set bare 0 1 3.;
  checkf "explicit edge" 3. (Backend.query bare 0 1);
  Alcotest.(check bool) "set on dense raises" true
    (match Backend.set (Backend.dense m) 0 1 1. with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "diagonal set raises" true
    (match Backend.set bare 2 2 1. with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "base size mismatch raises" true
    (match Backend.sparse ~base:(Backend.dense m) ~size:11 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_densify_roundtrip () =
  let m = euclidean_matrix 3 25 in
  let d = Backend.densify (Backend.dense m) in
  let same = ref true in
  Matrix.iter_edges m (fun i j v ->
      if not (same_delay (Matrix.get d i j) v) then same := false);
  Alcotest.(check bool) "densify (dense m) = m" true !same

let test_neighbors_sampled () =
  let m = euclidean_matrix 4 40 in
  let b = Backend.dense m in
  let picks = Backend.neighbors_sampled b (Rng.create 5) 7 ~k:10 in
  Alcotest.(check int) "k samples" 10 (Array.length picks);
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (j, d) ->
      Alcotest.(check bool) "never self" true (j <> 7);
      Alcotest.(check bool) "distinct" false (Hashtbl.mem seen j);
      Hashtbl.replace seen j ();
      checkf "delay matches query" (Backend.query b 7 j) d)
    picks;
  (* k capped at size - 1. *)
  Alcotest.(check int) "capped at n-1" 39
    (Array.length (Backend.neighbors_sampled b (Rng.create 6) 0 ~k:500));
  match Backend.nearest_sampled b (Rng.create 7) 3 ~k:39 with
  | None -> Alcotest.fail "expected a nearest node on a complete space"
  | Some (j, d) ->
    checkf "nearest is the row minimum" d
      (snd (Option.get (Matrix.nearest_neighbor m 3)));
    ignore j

let test_oracle_recovery () =
  let m = euclidean_matrix 8 20 in
  (* Dense: the oracle is the historical matrix oracle, and recovery
     re-wraps the same matrix. *)
  let dense = Backend.dense m in
  let e = Backend.engine dense in
  Alcotest.(check bool) "dense engine keeps its matrix" true
    (match Backend.matrix (Backend.of_engine e) with
    | Some m' -> m' == m
    | None -> false);
  Alcotest.(check bool) "recovered backend is dense" true
    (Backend.kind_name (Backend.of_engine e) = "dense");
  (* Lazy: the extension tag hands back the very same backend. *)
  let lb = Backend.lazy_synth ~seed:9 ~size:50 (ds2_model 10) in
  Alcotest.(check bool) "lazy backend recovered identically" true
    (Backend.of_engine (Backend.engine lb) == lb)

(* ------------------------------------------------------------------ *)
(* Dense backend == raw matrix, protocol by protocol                   *)

let test_equiv_vivaldi () =
  let m = euclidean_matrix 20 40 in
  let raw = System.create (Rng.create 21) m in
  let via =
    System.create_with_engine (Rng.create 21)
      (Backend.engine (Backend.dense m))
  in
  System.run raw ~rounds:15;
  System.run via ~rounds:15;
  for i = 0 to 39 do
    let a = System.coord raw i and b = System.coord via i in
    Array.iteri (fun d x -> checkf "coordinate component" x b.(d)) a
  done

let ring_cfg = Ring.default_config

let same_rings a b nodes =
  Array.iter
    (fun node ->
      for i = 1 to ring_cfg.Ring.rings do
        let ma = Overlay.ring_members a node i
        and mb = Overlay.ring_members b node i in
        Alcotest.(check int) "ring population" (List.length ma)
          (List.length mb);
        List.iter2
          (fun x y ->
            Alcotest.(check int) "member id" x.Overlay.id y.Overlay.id;
            checkf "member delay" x.Overlay.delay y.Overlay.delay)
          ma mb
      done)
    nodes

(* A function-backed view of a matrix: the same answers through a
   different backend kind (and a function-backed oracle). *)
let fn_backend m = Backend.of_fn ~size:(Matrix.size m) (Matrix.get m)

let test_equiv_meridian_rings () =
  let m = euclidean_matrix 22 60 in
  let nodes = Rng.sample_indices (Rng.create 23) ~n:60 ~k:30 in
  let raw =
    Overlay.build (Rng.create 24) (fn_backend m) ring_cfg ~meridian_nodes:nodes
  in
  let via =
    Overlay.build (Rng.create 24) (Backend.dense m) ring_cfg
      ~meridian_nodes:nodes
  in
  same_rings raw via nodes;
  (* A budget covering every participant keeps the historical shuffle. *)
  let budgeted =
    Overlay.build ~candidate_budget:30 (Rng.create 24) (Backend.dense m)
      ring_cfg ~meridian_nodes:nodes
  in
  same_rings raw budgeted nodes

let test_equiv_meridian_closest () =
  let m = euclidean_matrix 25 50 in
  let nodes = Rng.sample_indices (Rng.create 26) ~n:50 ~k:25 in
  let overlay =
    Overlay.build (Rng.create 27) (Backend.dense m) ring_cfg ~meridian_nodes:nodes
  in
  let raw_engine = Engine.of_matrix m in
  let engine = Backend.engine (fn_backend m) in
  Array.to_list (Rng.permutation (Rng.create 28) 50)
  |> List.iter (fun target ->
         if
           (not (Overlay.is_meridian overlay target))
           && Matrix.known m nodes.(0) target
         then begin
           let raw = Query.closest overlay raw_engine ~start:nodes.(0) ~target in
           let via = Query.closest overlay engine ~start:nodes.(0) ~target in
           Alcotest.(check int) "chosen" raw.Query.chosen via.Query.chosen;
           checkf "chosen delay" raw.Query.chosen_delay via.Query.chosen_delay;
           Alcotest.(check int) "probes" raw.Query.probes via.Query.probes;
           Alcotest.(check int) "hops" raw.Query.hops via.Query.hops
         end)

let test_equiv_meridian_online () =
  let m = euclidean_matrix 29 50 in
  let nodes = Rng.sample_indices (Rng.create 30) ~n:50 ~k:25 in
  let overlay =
    Overlay.build (Rng.create 31) (Backend.dense m) ring_cfg ~meridian_nodes:nodes
  in
  let client, target =
    match
      Array.to_list (Rng.permutation (Rng.create 32) 50)
      |> List.filter (fun i -> not (Overlay.is_meridian overlay i))
    with
    | c :: t :: _ -> (c, t)
    | _ -> Alcotest.fail "expected two non-members"
  in
  let run engine =
    let sim = Sim.create () in
    Online.attach sim engine;
    Online.closest sim overlay engine ~client ~start:nodes.(0) ~target
  in
  let raw = run (Engine.of_matrix m) in
  let via = run (Backend.engine (fn_backend m)) in
  Alcotest.(check int) "chosen" raw.Online.query.Query.chosen
    via.Online.query.Query.chosen;
  Alcotest.(check int) "probes" raw.Online.query.Query.probes
    via.Online.query.Query.probes;
  checkf "latency" raw.Online.latency via.Online.latency

let test_equiv_alert () =
  let data = Datasets.generate ~size:60 ~seed:33 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let severity = Tivaware_tiv.Severity.all m in
  (* A deliberately shrunk prediction so some thresholds fire. *)
  let predicted i j = 0.5 *. Matrix.get m i j in
  let run engine =
    Eval.evaluate_engine ~engine ~predicted ~severity ~worst_fraction:0.1
      ~thresholds:Eval.default_thresholds
  in
  let raw = run (Engine.of_matrix m) in
  let via = run (Backend.engine (Backend.dense m)) in
  List.iter2
    (fun (a : Eval.point) (b : Eval.point) ->
      checkf "threshold" a.Eval.threshold b.Eval.threshold;
      Alcotest.(check int) "alerts" a.Eval.alerts b.Eval.alerts;
      checkf "accuracy" a.Eval.accuracy b.Eval.accuracy;
      checkf "recall" a.Eval.recall b.Eval.recall)
    raw via

(* ------------------------------------------------------------------ *)
(* Lazy backend                                                        *)

let test_lazy_determinism () =
  let model = ds2_model 40 in
  let b = Backend.lazy_synth ~seed:41 ~size:200 model in
  (* Same pair twice — no memo, so both calls re-synthesize. *)
  for _ = 1 to 3 do
    Alcotest.(check bool) "stable across repeated queries" true
      (same_delay (Backend.query b 17 93) (Backend.query b 17 93))
  done;
  Alcotest.(check bool) "symmetric" true
    (same_delay (Backend.query b 17 93) (Backend.query b 93 17));
  (* Two backends, same seed, opposite query orders. *)
  let b1 = Backend.lazy_synth ~seed:41 ~size:200 model in
  let b2 = Backend.lazy_synth ~seed:41 ~size:200 model in
  let pairs =
    Array.init 500 (fun k ->
        let rng = Rng.create (1000 + k) in
        let i = Rng.int rng 200 in
        let j = (i + 1 + Rng.int rng 199) mod 200 in
        (i, j))
  in
  let forward = Array.map (fun (i, j) -> Backend.query b1 i j) pairs in
  let backward =
    Array.init (Array.length pairs) (fun k ->
        let i, j = pairs.(Array.length pairs - 1 - k) in
        Backend.query b2 i j)
  in
  Array.iteri
    (fun k d ->
      Alcotest.(check bool) "order independent" true
        (same_delay d backward.(Array.length pairs - 1 - k)))
    forward;
  (* A different seed really is a different space. *)
  let other = Backend.lazy_synth ~seed:42 ~size:200 model in
  let differs = ref false in
  Array.iter
    (fun (i, j) ->
      let a = Backend.query b1 i j and b = Backend.query other i j in
      if (not (same_delay a b)) && not (Float.is_nan a || Float.is_nan b) then
        differs := true)
    pairs;
  Alcotest.(check bool) "different seed differs" true !differs

let test_lazy_labels_match_eager () =
  (* The lazy bucket assignment consumes the seed exactly like the
     eager synthesizer's assignment pass, so cluster labels agree. *)
  let model = ds2_model 43 in
  let b = Backend.lazy_synth ~seed:44 ~size:300 model in
  let _, eager_labels =
    Synthesizer.synthesize_with_clusters (Rng.create 44) model ~size:300
  in
  match Backend.labels b with
  | None -> Alcotest.fail "lazy backend must expose labels"
  | Some lazy_labels ->
    Alcotest.(check (array int)) "labels agree with eager synthesis"
      eager_labels lazy_labels

let test_lazy_memo_bound () =
  let model = ds2_model 45 in
  let b = Backend.lazy_synth ~memo:16 ~seed:46 ~size:100 model in
  let reg = Obs.Registry.create () in
  Backend.attach_obs b reg;
  (* Record first-touch values, then hammer many more pairs than the
     memo holds. *)
  let firsts = ref [] in
  for i = 0 to 19 do
    for j = i + 1 to 19 do
      firsts := ((i, j), Backend.query b i j) :: !firsts
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "memo bounded (%d <= 16)" (Backend.materialized b))
    true
    (Backend.materialized b <= 16);
  (* Every value survives eviction and recomputation. *)
  List.iter
    (fun ((i, j), d) ->
      Alcotest.(check bool) "evicted pair recomputes identically" true
        (same_delay d (Backend.query b i j)))
    !firsts;
  (* A memoized backend equals a memo-less one everywhere. *)
  let plain = Backend.lazy_synth ~seed:46 ~size:100 model in
  List.iter
    (fun ((i, j), d) ->
      Alcotest.(check bool) "memo never changes values" true
        (same_delay d (Backend.query plain i j)))
    !firsts

let test_lazy_validation () =
  let model = ds2_model 47 in
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "size < 2" true
    (raises (fun () -> Backend.lazy_synth ~seed:1 ~size:1 model));
  Alcotest.(check bool) "jitter out of range" true
    (raises (fun () -> Backend.lazy_synth ~jitter:1. ~seed:1 ~size:10 model));
  Alcotest.(check bool) "memo < 1" true
    (raises (fun () -> Backend.lazy_synth ~memo:0 ~seed:1 ~size:10 model))

let test_lazy_instruments () =
  let model = ds2_model 48 in
  let b = Backend.lazy_synth ~memo:64 ~seed:49 ~size:100 model in
  let reg = Obs.Registry.create () in
  Backend.attach_obs b reg;
  let labels = [ ("backend", "lazy") ] in
  ignore (Backend.query b 0 1);
  ignore (Backend.query b 0 1);
  let counter name = Obs.Counter.value (Obs.Registry.counter reg ~labels name) in
  checkf "two queries counted" 2. (counter "backend.queries");
  checkf "one synthesis" 1. (counter "backend.synthesized");
  checkf "one memo hit" 1. (counter "backend.memo_hits")

(* ------------------------------------------------------------------ *)
(* Property harness: synthesized-then-densified matches Lazy_synth     *)

let test_densified_800_matches_lazy () =
  (* An 800-node lazy space densified up front must agree pair-for-pair
     with fresh lazy queries under the same seed — including which
     pairs go missing — regardless of query order or memoization. *)
  let model = ds2_model 50 in
  let seed = 51 and size = 800 in
  let dense = Backend.densify (Backend.lazy_synth ~seed ~size model) in
  let b = Backend.lazy_synth ~memo:4096 ~seed ~size model in
  let mismatches = ref 0 in
  (* Scan in reverse row order so the query order differs from the
     densify pass. *)
  for i = size - 1 downto 0 do
    for j = size - 1 downto i + 1 do
      if not (same_delay (Matrix.get dense i j) (Backend.query b i j)) then
        incr mismatches
    done
  done;
  Alcotest.(check int) "pair-for-pair equal" 0 !mismatches

let pure_model = lazy (ds2_model 52)

let prop_lazy_pair_pure =
  qcheck ~count:100 "a pair's delay is a pure function of (seed, i, j)"
    QCheck2.Gen.(triple (int_range 0 1_000_000) (int_range 0 99) (int_range 0 99))
    (fun (seed, i, j) ->
      let model = Lazy.force pure_model in
      i = j
      ||
      let a = Backend.query (Backend.lazy_synth ~seed ~size:100 model) i j in
      let b = Backend.query (Backend.lazy_synth ~seed ~size:100 model) j i in
      same_delay a b)

(* ------------------------------------------------------------------ *)
(* Dense == lazy-densified equivalence for the backend-parameterized
   protocol drivers: the same delay answers must grow the same Chord
   overlay and multicast tree, query for query, whichever backend
   representation serves them. *)

module Chord = Tivaware_dht.Chord
module Multicast = Tivaware_overlay.Multicast

let lazy_and_densified seed =
  let model = ds2_model seed in
  let lz = Backend.lazy_synth ~seed ~size:120 model in
  (lz, Backend.dense (Backend.densify lz))

let test_equiv_chord () =
  let lz, dn = lazy_and_densified 31 in
  let build b = Chord.build ~predict:(Backend.query b) (Backend.size b) in
  let ov_l = build lz and ov_d = build dn in
  for node = 0 to Backend.size lz - 1 do
    Alcotest.(check int) "successor" (Chord.successor ov_d node)
      (Chord.successor ov_l node);
    Alcotest.(check (array int)) "fingers"
      (Array.of_list (List.sort compare (Array.to_list (Chord.fingers ov_d node))))
      (Array.of_list (List.sort compare (Array.to_list (Chord.fingers ov_l node))))
  done;
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let source = Rng.int rng (Backend.size lz) in
    let key = Rng.int rng 4096 in
    let rl = Chord.lookup ov_l lz ~source ~key in
    let rd = Chord.lookup ov_d dn ~source ~key in
    Alcotest.(check int) "hops" rd.Chord.hops rl.Chord.hops;
    Alcotest.(check int) "owner" rd.Chord.owner rl.Chord.owner;
    checkf "latency" rd.Chord.latency rl.Chord.latency;
    Alcotest.(check (list int)) "route" rd.Chord.route rl.Chord.route
  done

let test_equiv_multicast () =
  let lz, dn = lazy_and_densified 47 in
  let n = Backend.size lz in
  let join_order = Rng.permutation (Rng.create 9) n in
  let e_l = Backend.engine lz and e_d = Backend.engine dn in
  let t_l = Multicast.build e_l ~join_order in
  let t_d = Multicast.build e_d ~join_order in
  let parents t = List.map (fun m -> (m, Multicast.parent t m)) (Multicast.members t) in
  Alcotest.(check (list (pair int (option int)))) "built parents equal"
    (parents t_d) (parents t_l);
  let sw_l = Multicast.refresh t_l (Rng.create 3) e_l in
  let sw_d = Multicast.refresh t_d (Rng.create 3) e_d in
  Alcotest.(check int) "refresh switches equal" sw_d sw_l;
  Alcotest.(check (list (pair int (option int)))) "refreshed parents equal"
    (parents t_d) (parents t_l);
  let m_l = Multicast.evaluate t_l e_l in
  let m_d = Multicast.evaluate t_d e_d in
  Alcotest.(check int) "members" m_d.Multicast.members m_l.Multicast.members;
  checkf "mean edge" m_d.Multicast.mean_edge_ms m_l.Multicast.mean_edge_ms;
  checkf "median stretch" m_d.Multicast.median_stretch m_l.Multicast.median_stretch;
  checkf "p90 stretch" m_d.Multicast.p90_stretch m_l.Multicast.p90_stretch;
  Alcotest.(check int) "max depth" m_d.Multicast.max_depth m_l.Multicast.max_depth;
  Alcotest.(check int) "max fanout" m_d.Multicast.max_fanout m_l.Multicast.max_fanout

(* TIV-aware Meridian needs no matrix: dual-placement rings built over
   a lazy engine, and the fallback queries run on them, equal the same
   run over the densified dense engine. *)
let test_equiv_tiv_aware_meridian () =
  let lz, dn = lazy_and_densified 59 in
  let n = Backend.size lz in
  let nodes = Rng.sample_indices (Rng.create 61) ~n ~k:40 in
  let targets =
    List.filter
      (fun i -> not (Array.mem i nodes))
      (Array.to_list (Rng.permutation (Rng.create 62) n))
  in
  (* A uniformly shrunk prediction: every edge's ratio (0.5) is below
     ts, so dual placement and the query restart both fire. *)
  let predicted i j = 0.5 *. Backend.query dn i j in
  let run backend =
    let engine = Backend.engine backend in
    let overlay =
      Tivaware_core.Selectors.meridian_build_tiv_aware engine ring_cfg
        ~predicted (Rng.create 63) nodes
    in
    let fallback =
      Tivaware_core.Selectors.meridian_fallback_tiv_aware engine ~predicted ()
        overlay
    in
    let outcomes =
      List.map
        (fun target -> Query.closest ~fallback overlay engine ~start:nodes.(0) ~target)
        targets
    in
    (overlay, outcomes)
  in
  let ov_l, out_l = run lz in
  let ov_d, out_d = run dn in
  same_rings ov_d ov_l nodes;
  Alcotest.(check bool) "dual entries placed" true
    (Array.exists
       (fun node ->
         List.length (Overlay.all_entries ov_l node)
         > List.length (Overlay.all_members ov_l node))
       nodes);
  Alcotest.(check bool) "restarts fired" true
    (List.exists (fun o -> o.Query.restarts > 0) out_l);
  Alcotest.(check bool) "outcomes equal" true (compare out_d out_l = 0)

(* A lazy store scenario, densified, replays bit-identically: same
   device placements, same per-read policy decisions, same repair
   trace — for a probing policy and for the alert-aware one. *)
let test_equiv_store () =
  let lz, dn = lazy_and_densified 53 in
  let run backend policy_of =
    let engine =
      Backend.engine
        ~config:
          {
            Engine.fault = { Fault.default with Fault.loss = 0.05 };
            profile = None;
            churn = Some { Churn.fraction = 0.2; mean_up = 60.; mean_down = 12.; seed = 77 };
            dynamics = None;
            budget = None;
            cache_ttl = None;
            cache_capacity = None;
            charge_time = false;
            seed = 501;
          }
        backend
    in
    let config =
      {
        Scenario.default_config with
        Scenario.devices = 16;
        part_power = 5;
        replicas = 3;
        objects = 64;
        reads = 150;
        duration = 90.;
        repair_interval = 10.;
        seed = 19;
      }
    in
    let sc =
      Scenario.create ~config ~policy:(policy_of backend) ~backend ~engine ()
    in
    let trace = ref [] and rtrace = ref [] in
    let result =
      Scenario.run
        ~trace:(fun o -> trace := o :: !trace)
        ~repair_trace:(fun o -> rtrace := o :: !rtrace)
        sc
    in
    let ring = Scenario.ring sc in
    let placements =
      Array.init (Store_ring.parts ring) (Store_ring.assignment ring)
    in
    (placements, List.rev !trace, List.rev !rtrace, result)
  in
  let arm policy_of =
    let pl, tl, rl, resl = run lz policy_of in
    let pd, td, rd, resd = run dn policy_of in
    Alcotest.(check bool) "placements equal" true (pl = pd);
    Alcotest.(check int) "same read count" (List.length td) (List.length tl);
    Alcotest.(check bool) "per-read decisions equal" true (tl = td);
    Alcotest.(check bool) "repair traces equal" true (rl = rd);
    Alcotest.(check bool) "results equal" true (resl = resd)
  in
  arm (fun _ -> Selection.cached ());
  arm (fun backend ->
      Selection.alert (fun i j -> 0.9 *. Backend.query backend i j))

let () =
  Alcotest.run "backend"
    [
      ( "query",
        [
          Alcotest.test_case "dense query" `Quick test_dense_query;
          Alcotest.test_case "sparse overrides" `Quick test_sparse_overrides;
          Alcotest.test_case "densify roundtrip" `Quick test_densify_roundtrip;
          Alcotest.test_case "neighbors sampled" `Quick test_neighbors_sampled;
          Alcotest.test_case "oracle recovery" `Quick test_oracle_recovery;
        ] );
      ( "dense_equivalence",
        [
          Alcotest.test_case "vivaldi coordinates" `Quick test_equiv_vivaldi;
          Alcotest.test_case "meridian rings" `Quick test_equiv_meridian_rings;
          Alcotest.test_case "meridian closest" `Quick test_equiv_meridian_closest;
          Alcotest.test_case "meridian online" `Quick test_equiv_meridian_online;
          Alcotest.test_case "tiv alert" `Quick test_equiv_alert;
          Alcotest.test_case "chord" `Quick test_equiv_chord;
          Alcotest.test_case "multicast" `Quick test_equiv_multicast;
          Alcotest.test_case "tiv-aware meridian" `Quick
            test_equiv_tiv_aware_meridian;
          Alcotest.test_case "store" `Quick test_equiv_store;
        ] );
      ( "lazy",
        [
          Alcotest.test_case "determinism" `Quick test_lazy_determinism;
          Alcotest.test_case "labels match eager" `Quick test_lazy_labels_match_eager;
          Alcotest.test_case "memo bound" `Quick test_lazy_memo_bound;
          Alcotest.test_case "validation" `Quick test_lazy_validation;
          Alcotest.test_case "instruments" `Quick test_lazy_instruments;
        ] );
      ( "property",
        [
          Alcotest.test_case "densified 800 matches lazy" `Slow
            test_densified_800_matches_lazy;
          prop_lazy_pair_pure;
        ] );
    ]
