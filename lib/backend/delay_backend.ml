module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix
module Synthesizer = Tivaware_topology.Synthesizer
module Oracle = Tivaware_measure.Oracle
module Engine = Tivaware_measure.Engine
module Cache = Tivaware_measure.Cache
module Obs = Tivaware_obs

type instruments = {
  queries : Obs.Counter.t;
  synthesized : Obs.Counter.t;
  memo_hits : Obs.Counter.t;
  memo_evictions : Obs.Counter.t;
  materialized_gauge : Obs.Gauge.t;
  draws : Obs.Histogram.t;
}

type lazy_state = {
  model : Synthesizer.model;
  seed : int;
  jitter : float;
  bucket_of : int array;
  lazy_labels : int array;
  memo : Cache.t option;
}

type kind =
  | Dense of Matrix.t
  | Lazy of lazy_state
  | Fn of (int -> int -> float)

and t = {
  size : int;
  kind : kind;
  mutable inst : instruments option;
}

type Oracle.ext += Backend of t

let size t = t.size

let kind_name t =
  match t.kind with
  | Dense _ -> "dense"
  | Lazy _ -> "lazy"
  | Fn _ -> "fn"

let dense m = { size = Matrix.size m; kind = Dense m; inst = None }

(* Every pair gets its own SplitMix64 stream, seeded by finalizer-mixing
   (seed, min i j, max i j).  Query order therefore cannot matter: the
   draw for a pair is a pure function of the backend seed and the pair. *)
let pair_seed seed i j =
  let i, j = if i < j then (i, j) else (j, i) in
  let mix z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  let open Int64 in
  let h = mix (add (of_int seed) 0x9E3779B97F4A7C15L) in
  let h = mix (logxor h (of_int i)) in
  let h = mix (logxor h (of_int j)) in
  Int64.to_int h

let lazy_synth ?(jitter = 0.05) ?memo ~seed ~size model =
  if size < 2 then invalid_arg "Delay_backend.lazy_synth: size must be >= 2";
  if jitter < 0. || jitter >= 1. then
    invalid_arg "Delay_backend.lazy_synth: jitter must be in [0, 1)";
  (match memo with
  | Some c when c < 1 ->
    invalid_arg "Delay_backend.lazy_synth: memo capacity must be >= 1"
  | _ -> ());
  (* The bucket assignment is the only size-dependent state: O(N) ints,
     never O(N^2) delays.  It consumes the seed's stream exactly like
     the eager synthesizer's assignment pass. *)
  let rng = Rng.create seed in
  let bucket_of = Synthesizer.assign_buckets rng model ~size in
  let lazy_labels = Synthesizer.bucket_labels model bucket_of in
  let memo =
    Option.map (fun capacity -> Cache.create ~capacity ~ttl:infinity ()) memo
  in
  {
    size;
    kind = Lazy { model; seed; jitter; bucket_of; lazy_labels; memo };
    inst = None;
  }

let of_fn ~size f =
  if size < 1 then invalid_arg "Delay_backend.of_fn: size must be >= 1";
  { size; kind = Fn f; inst = None }

let materialized t =
  match t.kind with
  | Dense m -> Matrix.size m * (Matrix.size m - 1) / 2
  | Lazy { memo = Some c; _ } -> Cache.length c
  | Lazy { memo = None; _ } -> 0
  | Fn _ -> 0

let draw_lazy ls i j =
  let rng = Rng.create (pair_seed ls.seed i j) in
  Synthesizer.draw_delay ~jitter:ls.jitter rng ls.model
    ~a:ls.bucket_of.(i) ~b:ls.bucket_of.(j)

(* Free lookups (dense, fn) count as zero-draw queries. *)
let observe_free_query t =
  match t.inst with
  | None -> ()
  | Some inst ->
    Obs.Counter.incr inst.queries;
    Obs.Histogram.observe inst.draws 0.

let query t i j =
  if i < 0 || i >= t.size || j < 0 || j >= t.size then
    invalid_arg "Delay_backend.query: node out of range";
  if i = j then 0.
  else
    match t.kind with
    | Dense m ->
      observe_free_query t;
      Matrix.get m i j
    | Fn f ->
      observe_free_query t;
      f i j
    | Lazy ls -> begin
      let memo_hit =
        match ls.memo with
        | None -> None
        | Some c -> (
          match Cache.find c ~now:0. i j with
          | Cache.Hit d -> Some d
          | Cache.Stale | Cache.Miss -> None)
      in
      match memo_hit with
      | Some d ->
        (match t.inst with
        | Some inst ->
          Obs.Counter.incr inst.queries;
          Obs.Counter.incr inst.memo_hits;
          Obs.Histogram.observe inst.draws 0.
        | None -> ());
        d
      | None ->
        let d = draw_lazy ls i j in
        (* nan = 1 draw (missing trial, or an empty bucket after it);
           a realized delay = bernoulli + choice + jitter = 3 draws. *)
        let draws = if Float.is_nan d then 1. else 3. in
        let evicted =
          match ls.memo with
          | None -> 0
          | Some c -> Cache.store c ~now:0. i j d
        in
        (match t.inst with
        | Some inst ->
          Obs.Counter.incr inst.queries;
          Obs.Counter.incr inst.synthesized;
          Obs.Histogram.observe inst.draws draws;
          if evicted > 0 then
            Obs.Counter.add inst.memo_evictions (float_of_int evicted);
          Obs.Gauge.set inst.materialized_gauge (float_of_int (materialized t))
        | None -> ());
        d
    end

let matrix t = match t.kind with Dense m -> Some m | _ -> None

let labels t =
  match t.kind with
  | Lazy ls -> Some (Array.copy ls.lazy_labels)
  | _ -> None

let densify t = Matrix.init t.size (fun i j -> query t i j)

let oracle t =
  match t.kind with
  (* The dense path must stay bit-identical to the historical
     Oracle.of_matrix: same lookup, matrix recoverable, no extra
     instrumentation on engine probes. *)
  | Dense m -> Oracle.of_matrix m
  | _ -> Oracle.of_fn ~ext:(Backend t) ~size:t.size (fun i j -> query t i j)

let engine ?config t = Engine.create ?config (oracle t)

let of_engine e =
  let o = Engine.oracle e in
  match Oracle.ext o with
  | Some (Backend b) -> b
  | _ -> (
    match Oracle.matrix o with
    | Some m -> dense m
    | None -> of_fn ~size:(Oracle.size o) (fun i j -> Oracle.query o i j))

let draw_edges = [| 0.; 1.; 3. |]

let attach_obs t reg =
  let labels = [ ("backend", kind_name t) ] in
  let inst =
    {
      queries = Obs.Registry.counter reg ~labels "backend.queries";
      synthesized = Obs.Registry.counter reg ~labels "backend.synthesized";
      memo_hits = Obs.Registry.counter reg ~labels "backend.memo_hits";
      memo_evictions = Obs.Registry.counter reg ~labels "backend.memo_evictions";
      materialized_gauge = Obs.Registry.gauge reg ~labels "backend.materialized";
      draws =
        Obs.Registry.histogram reg ~labels ~edges:draw_edges
          "backend.query_draws";
    }
  in
  Obs.Gauge.set inst.materialized_gauge (float_of_int (materialized t));
  t.inst <- Some inst
