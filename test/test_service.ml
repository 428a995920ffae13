(* Tests for the query-serving harness: work-queue blocking semantics
   and shutdown liveness, workload partition independence, and the
   driver's two determinism contracts — `--domains 1` bit-identical to
   the sequential reference, and N-domain merged summaries reproducible
   run over run. *)

module Rng = Tivaware_util.Rng
module Euclidean = Tivaware_topology.Euclidean
module Backend = Tivaware_backend.Delay_backend
module Engine = Tivaware_measure.Engine
module Obs = Tivaware_obs
module Work_queue = Tivaware_service.Work_queue
module Workload = Tivaware_service.Workload
module Shard = Tivaware_service.Shard
module Driver = Tivaware_service.Driver

let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ------------------------------------------------------------------ *)
(* Work queue                                                          *)

let test_queue_fifo () =
  let q = Work_queue.create () in
  for i = 1 to 5 do
    Work_queue.push q i
  done;
  Work_queue.close q;
  let drained = List.init 6 (fun _ -> Work_queue.pop q) in
  Alcotest.(check (list (option int)))
    "drained in order, then None"
    [ Some 1; Some 2; Some 3; Some 4; Some 5; None ]
    drained

let test_queue_closed_push_raises () =
  let q = Work_queue.create () in
  Work_queue.close q;
  Alcotest.(check bool) "push raises" true
    (match Work_queue.push q 1 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_queue_capacity_validation () =
  Alcotest.(check bool) "zero capacity rejected" true
    (match Work_queue.create ~capacity:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* A producer pushing past capacity must block until a consumer makes
   room — and then complete.  Deadlock here hangs the test (alcotest's
   failure mode for broken blocking semantics). *)
let test_queue_push_blocks_until_pop () =
  let q = Work_queue.create ~capacity:1 () in
  Work_queue.push q 1;
  let producer = Domain.spawn (fun () -> Work_queue.push q 2) in
  (* The producer is blocked on a full queue; popping must unblock it. *)
  Alcotest.(check (option int)) "first" (Some 1) (Work_queue.pop q);
  Domain.join producer;
  Alcotest.(check (option int)) "second" (Some 2) (Work_queue.pop q)

(* A consumer blocked on an empty queue must wake on close and see the
   end of the stream. *)
let test_queue_close_wakes_consumer () =
  let q : int Work_queue.t = Work_queue.create () in
  let consumer = Domain.spawn (fun () -> Work_queue.pop q) in
  Work_queue.close q;
  Alcotest.(check (option int)) "woken with None" None (Domain.join consumer)

(* Drain: every item is consumed exactly once across competing
   consumers, and all of them terminate after close. *)
let test_queue_multi_consumer_drain () =
  let q = Work_queue.create ~capacity:2 () in
  let n = 50 in
  let consumers =
    Array.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let rec loop acc =
              match Work_queue.pop q with
              | None -> acc
              | Some x -> loop (x :: acc)
            in
            loop []))
  in
  for i = 0 to n - 1 do
    Work_queue.push q i
  done;
  Work_queue.close q;
  let got =
    Array.to_list consumers |> List.concat_map Domain.join |> List.sort compare
  in
  Alcotest.(check (list int)) "each item exactly once" (List.init n Fun.id) got

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)

let test_workload_mix_validation () =
  let bad m =
    match Workload.validate_mix m with
    | exception Invalid_argument _ -> true
    | () -> false
  in
  Alcotest.(check bool) "zero mix rejected" true
    (bad { Workload.closest = 0; dht = 0; multicast = 0 });
  Alcotest.(check bool) "negative weight rejected" true
    (bad { Workload.closest = -1; dht = 2; multicast = 0 });
  Workload.validate_mix Workload.default_mix

(* A query's draws are a pure function of (seed, qid) — re-drawing
   gives the identical gap, kind and parameter stream. *)
let test_workload_draws_pure () =
  let mix = Workload.default_mix in
  for qid = 0 to 49 do
    let g1, k1, r1 = Workload.draws ~seed:42 ~qid ~rate:(Some 20.) mix in
    let g2, k2, r2 = Workload.draws ~seed:42 ~qid ~rate:(Some 20.) mix in
    checkf "gap" g1 g2;
    Alcotest.(check string) "kind" (Workload.kind_label k1)
      (Workload.kind_label k2);
    for _ = 1 to 5 do
      Alcotest.(check int) "param stream" (Rng.int r1 1000) (Rng.int r2 1000)
    done
  done

let test_workload_gap_modes () =
  let mix = Workload.default_mix in
  let gap_closed, _, _ = Workload.draws ~seed:7 ~qid:3 ~rate:None mix in
  checkf "closed loop draws no gap" 0. gap_closed;
  let gap_open, _, _ = Workload.draws ~seed:7 ~qid:3 ~rate:(Some 10.) mix in
  Alcotest.(check bool) "open loop gap positive" true (gap_open > 0.);
  (* Different seeds reseed the arrival process. *)
  let gap_other, _, _ = Workload.draws ~seed:8 ~qid:3 ~rate:(Some 10.) mix in
  Alcotest.(check bool) "seed changes the gap" true (gap_open <> gap_other)

let test_workload_mix_respected () =
  (* An all-DHT mix must never draw another kind. *)
  let mix = { Workload.closest = 0; dht = 1; multicast = 0 } in
  for qid = 0 to 99 do
    let _, kind, _ = Workload.draws ~seed:3 ~qid ~rate:None mix in
    Alcotest.(check string) "dht only" "dht" (Workload.kind_label kind)
  done

(* ------------------------------------------------------------------ *)
(* Driver determinism                                                  *)

let small_spec ?rate ?(queries = 60) ?(seed = 11) () =
  let m = Euclidean.uniform_box (Rng.create 5) ~n:60 ~dim:3 ~side_ms:300. in
  {
    Shard.seed;
    engine_config = Engine.default_config;
    make_backend = (fun () -> Backend.dense m);
    meridian_count = 8;
    candidate_budget = None;
    beta = 0.5;
    rate;
    mix = Workload.default_mix;
    queries;
  }

(* The summary file of a run, read back. *)
let summary result =
  let path = Filename.temp_file "tivaware_service" ".json" in
  Obs.Summary.write ~clock:result.Driver.clock result.Driver.obs path;
  let text = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  text

let test_single_domain_matches_sequential () =
  let spec = small_spec () in
  let seq = Driver.run_sequential spec in
  let one = Driver.run ~domains:1 spec in
  Alcotest.(check string) "summaries bit-identical" (summary seq) (summary one)

let test_single_domain_matches_sequential_open_loop () =
  let spec = small_spec ~rate:40. () in
  let seq = Driver.run_sequential spec in
  let one = Driver.run ~domains:1 spec in
  Alcotest.(check string) "summaries bit-identical" (summary seq) (summary one)

let test_multi_domain_reproducible () =
  let spec = small_spec () in
  let a = Driver.run ~domains:3 spec in
  let b = Driver.run ~domains:3 spec in
  Alcotest.(check string) "3-domain summaries reproducible" (summary a)
    (summary b)

let served result =
  Array.fold_left
    (fun acc k ->
      acc
      +. Obs.Counter.value
           (Obs.Registry.counter result.Driver.obs
              ~labels:[ ("kind", Workload.kind_label k) ]
              "service.queries"))
    0. Workload.kinds

(* The static partition covers the stream: whatever the domain count,
   every query is served exactly once. *)
let test_partition_covers_stream () =
  let spec = small_spec () in
  List.iter
    (fun domains ->
      let r = Driver.run ~domains spec in
      checkf
        (Printf.sprintf "%d domains serve all queries" domains)
        (float_of_int spec.Shard.queries)
        (served r))
    [ 1; 2; 3; 4 ]

(* Open loop: every shard accumulates the same global arrival clock, so
   the run's clock equals the full stream's last arrival — for any
   domain count — and is reproducible from the seed alone. *)
let test_arrival_clock_seeded () =
  let spec = small_spec ~rate:40. () in
  let expected =
    let total = ref 0. in
    for qid = 0 to spec.Shard.queries - 1 do
      let gap, _, _ =
        Workload.draws ~seed:spec.Shard.seed ~qid ~rate:spec.Shard.rate
          spec.Shard.mix
      in
      total := !total +. gap
    done;
    !total
  in
  let seq = Driver.run_sequential spec in
  checkf "sequential clock = last arrival" expected seq.Driver.clock;
  let multi = Driver.run ~domains:3 spec in
  checkf "3-domain clock = last arrival" expected multi.Driver.clock

let test_driver_validation () =
  Alcotest.(check bool) "domains 0 rejected" true
    (match Driver.run ~domains:0 (small_spec ()) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "meridian_count 0 rejected" true
    (match
       Driver.run_sequential { (small_spec ()) with Shard.meridian_count = 0 }
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative rate rejected" true
    (match Driver.run_sequential (small_spec ~rate:(-1.) ()) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "service"
    [
      ( "work_queue",
        [
          Alcotest.test_case "fifo drain" `Quick test_queue_fifo;
          Alcotest.test_case "push after close raises" `Quick
            test_queue_closed_push_raises;
          Alcotest.test_case "capacity validation" `Quick
            test_queue_capacity_validation;
          Alcotest.test_case "push blocks until pop" `Quick
            test_queue_push_blocks_until_pop;
          Alcotest.test_case "close wakes consumer" `Quick
            test_queue_close_wakes_consumer;
          Alcotest.test_case "multi-consumer drain" `Quick
            test_queue_multi_consumer_drain;
        ] );
      ( "workload",
        [
          Alcotest.test_case "mix validation" `Quick
            test_workload_mix_validation;
          Alcotest.test_case "draws are pure" `Quick test_workload_draws_pure;
          Alcotest.test_case "gap modes" `Quick test_workload_gap_modes;
          Alcotest.test_case "mix respected" `Quick test_workload_mix_respected;
        ] );
      ( "driver",
        [
          Alcotest.test_case "domains 1 = sequential" `Quick
            test_single_domain_matches_sequential;
          Alcotest.test_case "domains 1 = sequential (open loop)" `Quick
            test_single_domain_matches_sequential_open_loop;
          Alcotest.test_case "multi-domain reproducible" `Quick
            test_multi_domain_reproducible;
          Alcotest.test_case "partition covers stream" `Quick
            test_partition_covers_stream;
          Alcotest.test_case "arrival clock seeded" `Quick
            test_arrival_clock_seeded;
          Alcotest.test_case "validation" `Quick test_driver_validation;
        ] );
    ]
