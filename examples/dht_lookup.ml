(* Structured-overlay (Chord-like DHT) lookups with proximity neighbor
   selection — the paper's motivating class of distributed system.

   Finger tables are built four ways:
   - plain Chord (id-space only, proximity-oblivious);
   - PNS with raw Vivaldi predictions;
   - PNS with TIV-aware (dynamic-neighbor) Vivaldi predictions;
   - PNS with the measured-delay oracle (upper bound).
   We compare lookup latencies over the same random key workload.

   Run with:  dune exec examples/dht_lookup.exe *)

module Rng = Tivaware_util.Rng
module Stats = Tivaware_util.Stats
module Matrix = Tivaware_delay_space.Matrix
module Backend = Tivaware_backend.Delay_backend
module Datasets = Tivaware_topology.Datasets
module Generator = Tivaware_topology.Generator
module Chord = Tivaware_dht.Chord
module Id_space = Tivaware_dht.Id_space
module Dynamic_neighbors = Tivaware_vivaldi.Dynamic_neighbors
module System = Tivaware_vivaldi.System
module Selectors = Tivaware_core.Selectors

let () =
  let data = Datasets.generate ~size:250 ~seed:41 Datasets.Ds2 in
  let m = data.Generator.matrix in
  let n = Matrix.size m and truth = Backend.dense m in

  let vivaldi = Selectors.embed_vivaldi (Rng.create 42) m in
  let aware = Selectors.embed_vivaldi (Rng.create 42) m in
  Dynamic_neighbors.run aware
    { Dynamic_neighbors.rounds_per_iteration = 100; iterations = 5 };

  let overlays =
    [
      ("plain Chord", Chord.build n);
      ("PNS / Vivaldi", Chord.build ~predict:(System.predicted vivaldi) n);
      ("PNS / TIV-aware", Chord.build ~predict:(System.predicted aware) n);
      ("PNS / oracle", Chord.build ~predict:(Backend.query truth) n);
    ]
  in

  (* Shared workload: 1000 random (source, key) lookups. *)
  let rng = Rng.create 43 in
  let workload =
    Array.init 1000 (fun _ ->
        (Rng.int rng n, Rng.int rng Id_space.modulus))
  in

  Printf.printf "%-18s %10s %12s %12s %10s\n" "finger selection" "mean hops"
    "median (ms)" "p90 (ms)" "mean (ms)";
  List.iter
    (fun (name, overlay) ->
      let latencies = ref [] and hops = ref 0 in
      Array.iter
        (fun (source, key) ->
          let l = Chord.lookup overlay truth ~source ~key in
          latencies := l.Chord.latency :: !latencies;
          hops := !hops + l.Chord.hops)
        workload;
      let lat = Array.of_list !latencies in
      Printf.printf "%-18s %10.2f %12.1f %12.1f %10.1f\n" name
        (float_of_int !hops /. float_of_int (Array.length workload))
        (Stats.median lat) (Stats.percentile lat 90.) (Stats.mean lat))
    overlays;
  print_endline
    "\nPNS shrinks lookup latency without touching the id-space structure;\n\
     TIV-aware coordinates recover most of the oracle's advantage."
