(* Bechamel microbenchmarks of the hot kernels.  Run with --perf; they
   are excluded from the default figure run to keep it fast. *)

open Bechamel
open Toolkit
module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Backend = Tivaware_backend.Delay_backend
module Severity = Tivaware_tiv.Severity
module Shortest_path = Tivaware_delay_space.Shortest_path
module System = Tivaware_vivaldi.System
module Ring = Tivaware_meridian.Ring
module Overlay = Tivaware_meridian.Overlay
module Query = Tivaware_meridian.Query
module Generator = Tivaware_topology.Generator
module Datasets = Tivaware_topology.Datasets
module Engine = Tivaware_measure.Engine
module Fault = Tivaware_measure.Fault
module Budget = Tivaware_measure.Budget
module Churn = Tivaware_measure.Churn
module Oracle = Tivaware_measure.Oracle
module Multicast = Tivaware_overlay.Multicast
module Chord = Tivaware_dht.Chord

(* Probe-engine kernels: the per-lookup cost the measurement plane adds
   over a raw Matrix.get, plus the multicast refresh pass that issues
   most of tivd's probes and the Chord build every tivd shard runs.
   Collected separately into BENCH_measure.json. *)
let measure_tests m =
  let oracle_engine = Engine.of_matrix m in
  let faulty_engine =
    Engine.of_matrix
      ~config:
        {
          Engine.default_config with
          Engine.fault = { Fault.default with Fault.loss = 0.1; jitter = 0.2 };
          seed = 6;
        }
      m
  in
  let cached_engine =
    Engine.of_matrix
      ~config:{ Engine.default_config with Engine.cache_ttl = Some 1e9 }
      m
  in
  (* Warm the cache so the kernel measures the pure hit path. *)
  for i = 0 to 49 do
    for j = 0 to 49 do
      if i <> j then ignore (Engine.rtt cached_engine i j)
    done
  done;
  let lru_engine =
    Engine.of_matrix
      ~config:
        {
          Engine.default_config with
          Engine.cache_ttl = Some 1e9;
          cache_capacity = Some 256;
        }
      m
  in
  (* Warm past capacity so every lookup exercises the LRU list: hits
     move entries to the front, misses insert and evict the tail. *)
  for i = 0 to 49 do
    for j = 0 to 49 do
      if i <> j then ignore (Engine.rtt lru_engine i j)
    done
  done;
  let adaptive_engine =
    Engine.of_matrix
      ~config:
        {
          Engine.default_config with
          Engine.fault =
            {
              Fault.default with
              Fault.loss = 0.2;
              retries = 3;
              policy = Fault.adaptive ~target_failure:0.01 ();
            };
          seed = 8;
        }
      m
  in
  let budget = Budget.create (Budget.per_node ~capacity:1e12 ~rate:1.) ~n:200 in
  (* The churn clock at the store-churn shape: 1,600 nodes, 20% of them
     churning, advanced 20 ms (one read's share of simulated time) per
     run.  A scan of every node per advance costs microseconds here. *)
  let churn_engine =
    Engine.create
      ~config:{ Engine.default_config with Engine.churn = Some Churn.default }
      (Oracle.of_fn ~size:1600 (fun i j -> if i = j then 0. else 50.))
  in
  let churn_clock = ref 0. in
  (* One multicast refresh pass over a 100-node DS2 tree, on an engine
     with tivd-cached's probe cache (TTL 30 s, 4,096 entries); the
     clock moves one query gap at 200 queries/s per pass. *)
  let refresh_world =
    (Datasets.generate ~size:100 ~seed:11 Datasets.Ds2).Generator.matrix
  in
  let refresh_engine =
    Engine.of_matrix
      ~config:
        {
          Engine.default_config with
          Engine.cache_ttl = Some 30.;
          cache_capacity = Some 4096;
        }
      refresh_world
  in
  let tree =
    Multicast.build ~predict:(Matrix.get refresh_world) refresh_engine
      ~join_order:(Rng.permutation (Rng.create 12) 100)
  in
  let refresh_clock = ref 0. and refresh_rng = Rng.create 13 in
  (* One Chord ring over a 400-node DS2 world, fingers picked by ground
     truth: the ring every tivd shard builds. *)
  let ring_world = (Datasets.generate ~size:400 ~seed:2007 Datasets.Ds2).Generator.matrix in
  let rng = Rng.create 7 in
  [
    Test.make ~name:"measure/probe-oracle"
      (Staged.stage (fun () ->
           ignore (Engine.rtt oracle_engine (Rng.int rng 200) (Rng.int rng 200))));
    Test.make ~name:"measure/probe-faulty"
      (Staged.stage (fun () ->
           ignore (Engine.rtt faulty_engine (Rng.int rng 200) (Rng.int rng 200))));
    Test.make ~name:"measure/cache-hit"
      (Staged.stage (fun () ->
           ignore (Engine.rtt cached_engine (Rng.int rng 50) (Rng.int rng 50))));
    Test.make ~name:"measure/lru-cache-hit"
      (Staged.stage (fun () ->
           ignore (Engine.rtt lru_engine (Rng.int rng 50) (Rng.int rng 50))));
    Test.make ~name:"measure/adaptive-retry"
      (Staged.stage (fun () ->
           ignore
             (Engine.rtt adaptive_engine (Rng.int rng 200) (Rng.int rng 200))));
    Test.make ~name:"measure/budget-check"
      (Staged.stage (fun () ->
           ignore (Budget.try_take budget ~now:0. (Rng.int rng 200))));
    Test.make ~name:"measure/churn-advance"
      (Staged.stage (fun () ->
           churn_clock := !churn_clock +. 0.02;
           Engine.advance_to churn_engine !churn_clock));
    Test.make ~name:"measure/multicast-refresh"
      (Staged.stage (fun () ->
           refresh_clock := !refresh_clock +. 0.005;
           Engine.advance_to refresh_engine !refresh_clock;
           ignore (Multicast.refresh tree refresh_rng refresh_engine)));
    Test.make ~name:"dht/chord-build"
      (Staged.stage (fun () -> ignore (Chord.build ~predict:(Matrix.get ring_world) 400)));
    Test.make ~name:"measure/matrix-get-baseline"
      (Staged.stage (fun () ->
           ignore (Matrix.get m (Rng.int rng 200) (Rng.int rng 200))));
  ]

let tests () =
  let data = Datasets.generate ~size:200 ~seed:99 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let system = System.create (Rng.create 1) m in
  System.run system ~rounds:50;
  let rng = Rng.create 2 in
  let meridian_nodes = Rng.sample_indices rng ~n:(Matrix.size m) ~k:100 in
  let overlay =
    Overlay.build (Rng.create 3) (Backend.dense m) Ring.default_config
      ~meridian_nodes
  in
  let engine = Engine.of_matrix m in
  let query_rng = Rng.create 4 in
  [
    Test.make ~name:"rng/int" (Staged.stage (fun () -> Rng.int query_rng 1000));
    Test.make ~name:"vivaldi/round"
      (Staged.stage (fun () -> System.round system));
    Test.make ~name:"severity/edge"
      (Staged.stage (fun () -> ignore (Severity.edge m 0 1)));
    Test.make ~name:"dijkstra/single-source"
      (Staged.stage (fun () -> ignore (Shortest_path.single_source m 0)));
    Test.make ~name:"meridian/query"
      (Staged.stage (fun () ->
           let start = meridian_nodes.(Rng.int query_rng 100) in
           let target = Rng.int query_rng (Matrix.size m) in
           if Overlay.is_meridian overlay start
              && (not (Overlay.is_meridian overlay target))
              && not (Matrix.is_missing m start target)
           then ignore (Query.closest overlay engine ~start ~target)));
    Test.make ~name:"generator/200-nodes"
      (Staged.stage (fun () ->
           ignore (Datasets.generate ~size:200 ~seed:5 Datasets.Ds2)));
  ]
  @ measure_tests m

(* Strip bechamel's group prefix ("kernel/name" -> "name"). *)
let kernel_name name =
  match String.index_opt name '/' with
  | Some i when String.sub name 0 i = "kernel" ->
    String.sub name (i + 1) (String.length name - i - 1)
  | _ -> name

let write_measure_json estimates =
  let module Json = Tivaware_obs.Json in
  let measure =
    List.filter
      (fun (name, _) ->
        String.starts_with ~prefix:"measure/" name || String.starts_with ~prefix:"dht/" name)
      estimates
  in
  if measure <> [] then begin
    let kernels =
      List.map
        (fun (name, ns) ->
          (* Two decimals is far below run-to-run noise and keeps the
             committed baseline diff-friendly. *)
          Json.Obj
            [
              ("name", Json.String name);
              ("ns_per_run", Json.number (Float.round (ns *. 100.) /. 100.));
            ])
        measure
    in
    (* The host's core count, for reading the timings; perf_check
       compares kernels only. *)
    let cores = float_of_int (Domain.recommended_domain_count ()) in
    let doc = Json.Obj [ ("cores", Json.number cores); ("kernels", Json.List kernels) ] in
    let oc = open_out "BENCH_measure.json" in
    output_string oc (Json.to_string doc);
    output_string oc "\n";
    close_out oc;
    Printf.printf "wrote BENCH_measure.json (%d kernels)\n" (List.length measure)
  end

let run () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  (* Run each test individually, print the OLS-estimated monotonic time
     per run, and collect the estimates. *)
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
          (Instance.monotonic_clock) results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "%-28s %12.1f ns/run\n" name est;
            estimates := (kernel_name name, est) :: !estimates
          | _ -> Printf.printf "%-28s (no estimate)\n" name)
        ols)
    (List.map (fun t -> Test.make_grouped ~name:"kernel" [ t ]) (tests ()));
  write_measure_json (List.rev !estimates)
