module Rng = Tivaware_util.Rng
module Vec = Tivaware_util.Vec
module Welford = Tivaware_util.Welford
module Matrix = Tivaware_delay_space.Matrix
module Engine = Tivaware_measure.Engine
module Backend = Tivaware_backend.Delay_backend

type timestep =
  | Constant of float
  | Adaptive of { cc : float; ce : float }

type config = {
  dim : int;
  timestep : timestep;
  neighbors_per_node : int;
  height : bool;
}

let default_config =
  {
    dim = 5;
    timestep = Adaptive { cc = 0.25; ce = 0.25 };
    neighbors_per_node = 32;
    height = false;
  }

let min_height = 0.1

type t = {
  config : config;
  backend : Backend.t;  (* ground truth, for evaluation only *)
  engine : Engine.t;  (* every observation probes through here *)
  rng : Rng.t;
  coords : Vec.t array;
  errors : float array;
  neighbor_sets : int array array;
  mutable movement : Welford.t;
  mutable rounds : int;
}

let random_neighbors rng n self count =
  let want = min count (n - 1) in
  let picks = Rng.sample_indices rng ~n:(n - 1) ~k:want in
  (* Indices in [0, n-1) skipping self. *)
  Array.map (fun p -> if p >= self then p + 1 else p) picks

let create_with_engine ?(config = default_config) rng engine =
  let backend = Backend.of_engine engine in
  let n = Backend.size backend in
  assert (n >= 2);
  let rng = Rng.split rng in
  (* With heights the coordinate array carries one extra slot (the
     height, kept >= min_height). *)
  let storage_dim = config.dim + if config.height then 1 else 0 in
  let initial _ =
    let v = Array.init storage_dim (fun _ -> Rng.uniform rng (-1.) 1.) in
    if config.height then v.(config.dim) <- Rng.uniform rng min_height 1.;
    v
  in
  {
    config;
    backend;
    engine;
    rng;
    (* Small random initial coordinates break symmetry without starting
       far from the origin. *)
    coords = Array.init n initial;
    errors = Array.make n 1.;
    neighbor_sets =
      Array.init n (fun i -> random_neighbors rng n i config.neighbors_per_node);
    movement = Welford.create ();
    rounds = 0;
  }

let create ?config rng matrix =
  create_with_engine ?config rng (Engine.of_matrix matrix)

let config t = t.config
let size t = Array.length t.coords
let backend t = t.backend

let matrix t =
  match Backend.matrix t.backend with
  | Some m -> m
  | None -> invalid_arg "System.matrix: not a dense (matrix-backed) system"

let engine t = t.engine
let rng t = t.rng
let coord t i = Vec.copy t.coords.(i)
let error_estimate t i = t.errors.(i)

(* Distance over the euclidean part only (ignores the height slot). *)
let euclidean_part_dist t xi xj =
  let acc = ref 0. in
  for d = 0 to t.config.dim - 1 do
    let diff = xi.(d) -. xj.(d) in
    acc := !acc +. (diff *. diff)
  done;
  sqrt !acc

let distance t xi xj =
  if t.config.height then
    euclidean_part_dist t xi xj +. xi.(t.config.dim) +. xj.(t.config.dim)
  else Vec.dist xi xj

let predicted t i j = distance t t.coords.(i) t.coords.(j)

let neighbors t i = Array.copy t.neighbor_sets.(i)

let set_neighbors t i ns =
  if Array.exists (fun j -> j = i) ns then
    invalid_arg "System.set_neighbors: self-loop";
  t.neighbor_sets.(i) <- Array.copy ns

let neighbor_edges t =
  let seen = Hashtbl.create 1024 in
  Array.iteri
    (fun i ns ->
      Array.iter
        (fun j ->
          let key = if i < j then (i, j) else (j, i) in
          Hashtbl.replace seen key ())
        ns)
    t.neighbor_sets;
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

let observe_rtt t i j rtt =
  if not (Float.is_nan rtt) then begin
    let xi = t.coords.(i) and xj = t.coords.(j) in
    let dim = t.config.dim in
    let dist = distance t xi xj in
    let delta =
      match t.config.timestep with
      | Constant d -> d
      | Adaptive { cc; ce } ->
        let ei = t.errors.(i) and ej = t.errors.(j) in
        let w = if ei +. ej < 1e-12 then 0.5 else ei /. (ei +. ej) in
        (* Update the local error estimate with the sample error. *)
        let sample_error = if rtt < 1e-9 then 0. else abs_float (dist -. rtt) /. rtt in
        t.errors.(i) <- (sample_error *. ce *. w) +. (t.errors.(i) *. (1. -. (ce *. w)));
        cc *. w
    in
    let force = delta *. (rtt -. dist) in
    (* Euclidean part: move along the unit vector from j toward i. *)
    let eu = euclidean_part_dist t xi xj in
    let moved = ref 0. in
    if eu > 1e-12 then
      for d = 0 to dim - 1 do
        let u = (xi.(d) -. xj.(d)) /. eu in
        let step = force *. u in
        xi.(d) <- xi.(d) +. step;
        moved := !moved +. (step *. step)
      done
    else begin
      let u = Vec.random_unit t.rng dim in
      for d = 0 to dim - 1 do
        let step = force *. u.(d) in
        xi.(d) <- xi.(d) +. step;
        moved := !moved +. (step *. step)
      done
    end;
    (* Height part: the [x, h] unit vector's height component is
       (h_i + h_j) / dist (Dabek et al.), with the height floored. *)
    if t.config.height && dist > 1e-12 then begin
      let h_component = (xi.(dim) +. xj.(dim)) /. dist in
      let old_h = xi.(dim) in
      xi.(dim) <- Float.max min_height (xi.(dim) +. (force *. h_component));
      let dh = xi.(dim) -. old_h in
      moved := !moved +. (dh *. dh)
    end;
    Welford.add t.movement (sqrt !moved)
  end

let observe t i j = observe_rtt t i j (Engine.rtt ~label:"vivaldi" t.engine i j)

let reset_node t i =
  let storage_dim = t.config.dim + if t.config.height then 1 else 0 in
  let v = Array.init storage_dim (fun _ -> Rng.uniform t.rng (-1.) 1.) in
  if t.config.height then v.(t.config.dim) <- Rng.uniform t.rng min_height 1.;
  t.coords.(i) <- v;
  t.errors.(i) <- 1.

let round t =
  let n = size t in
  let started = Engine.now t.engine in
  let order = Rng.permutation t.rng n in
  Array.iter
    (fun i ->
      let ns = t.neighbor_sets.(i) in
      if Array.length ns > 0 then observe t i (Rng.choice t.rng ns))
    order;
  (* One synchronous round lasts at least one virtual second of
     measurement-plane time (budget refill, cache aging).  With a
     time-charging engine the probes themselves advance the clock, and
     a round whose measurements cost more than a second takes exactly
     what they cost — convergence time becomes measurement-aware. *)
  let elapsed = Engine.now t.engine -. started in
  if elapsed < 1. then Engine.advance t.engine (1. -. elapsed);
  t.rounds <- t.rounds + 1

let run t ~rounds =
  for _ = 1 to rounds do
    round t
  done

let rounds_elapsed t = t.rounds

let movement t = t.movement

let reset_movement t = t.movement <- Welford.create ()

let absolute_errors t =
  let out = ref [] in
  Matrix.iter_edges (matrix t) (fun i j d ->
      out := abs_float (predicted t i j -. d) :: !out);
  Array.of_list !out

let relative_errors t =
  let out = ref [] in
  Matrix.iter_edges (matrix t) (fun i j d ->
      if d > 1e-9 then out := (abs_float (predicted t i j -. d) /. d) :: !out);
  Array.of_list !out

(* Sampled counterpart of [relative_errors] for backends where
   iterating every pair is off the table (a 100k-node lazy space has
   5e9 pairs). *)
let sampled_relative_errors t rng ~pairs =
  let n = size t in
  let out = ref [] in
  for _ = 1 to pairs do
    let i = Rng.int rng n in
    let j =
      let p = Rng.int rng (n - 1) in
      if p >= i then p + 1 else p
    in
    let d = Backend.query t.backend i j in
    if d > 1e-9 then out := (abs_float (predicted t i j -. d) /. d) :: !out
  done;
  Array.of_list !out

let predictor t = predicted t
