module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix

type cluster_spec = {
  fraction : float;
  routers : int;
  intra_weight_lo : float;
  intra_weight_hi : float;
  access_mu : float;
  access_sigma : float;
}

type params = {
  nodes : int;
  clusters : cluster_spec list;
  noise_fraction : float;
  noise_access_shape : float;
  noise_access_scale : float;
  noise_access_cap : float;
  inter_base_lo : float;
  inter_base_hi : float;
  gateways_per_pair : int;
  extra_intra_edges : int;
  inflate_prob_intra : float;
  inflate_prob_inter : float;
  inflation_shape : float;
  inflation_scale : float;
  inflation_max : float;
  detour_cap_ms : float;
  jitter : float;
  missing_fraction : float;
}

let default_cluster fraction =
  {
    fraction;
    routers = 12;
    intra_weight_lo = 2.;
    intra_weight_hi = 18.;
    access_mu = 1.6;
    (* exp(1.6) ~ 5 ms median access *)
    access_sigma = 0.7;
  }

let default =
  {
    nodes = 800;
    clusters =
      [ default_cluster 0.48; default_cluster 0.34; default_cluster 0.18 ];
    noise_fraction = 0.05;
    noise_access_shape = 1.3;
    noise_access_scale = 25.;
    noise_access_cap = 400.;
    inter_base_lo = 60.;
    inter_base_hi = 160.;
    gateways_per_pair = 3;
    extra_intra_edges = 10;
    inflate_prob_intra = 0.05;
    inflate_prob_inter = 0.13;
    inflation_shape = 1.3;
    inflation_scale = 0.35;
    inflation_max = 12.;
    detour_cap_ms = 450.;
    jitter = 0.03;
    missing_fraction = 0.01;
  }

type t = {
  matrix : Matrix.t;
  base : Matrix.t;
  cluster_of : int array;
  params : params;
}

let validate p =
  let err msg = Error msg in
  let total_fraction =
    List.fold_left (fun acc c -> acc +. c.fraction) 0. p.clusters
  in
  if p.nodes < 4 then err "nodes must be >= 4"
  else if p.clusters = [] then err "at least one cluster required"
  else if abs_float (total_fraction -. 1.) > 0.01 then
    err "cluster fractions must sum to 1"
  else if List.exists (fun c -> c.routers < 1) p.clusters then
    err "each cluster needs at least one router"
  else if List.exists (fun c -> c.intra_weight_lo <= 0. || c.intra_weight_hi < c.intra_weight_lo) p.clusters
  then err "bad intra-cluster weight range"
  else if p.noise_fraction < 0. || p.noise_fraction >= 1. then
    err "noise_fraction must be in [0, 1)"
  else if p.inter_base_lo <= 0. || p.inter_base_hi < p.inter_base_lo then
    err "bad inter-cluster base range"
  else if p.gateways_per_pair < 1 then err "gateways_per_pair must be >= 1"
  else if p.inflation_max < 1. then err "inflation_max must be >= 1"
  else if p.jitter < 0. || p.jitter >= 1. then err "jitter must be in [0, 1)"
  else if p.missing_fraction < 0. || p.missing_fraction >= 1. then
    err "missing_fraction must be in [0, 1)"
  else Ok ()

(* Per-cluster random backbone subgraphs linked by gateway edges. *)
let build_backbone rng p =
  let clusters = Array.of_list p.clusters in
  let k = Array.length clusters in
  let offsets = Array.make k 0 in
  let total = ref 0 in
  Array.iteri
    (fun c spec ->
      offsets.(c) <- !total;
      total := !total + spec.routers)
    clusters;
  let g = Router_graph.create !total in
  (* Intra-cluster connectivity. *)
  Array.iteri
    (fun c spec ->
      let weight () = Rng.uniform rng spec.intra_weight_lo spec.intra_weight_hi in
      let sub =
        Router_graph.random_connected rng ~n:spec.routers
          ~extra_edges:p.extra_intra_edges ~weight
      in
      for r = 0 to spec.routers - 1 do
        List.iter
          (fun (peer, w) ->
            (* Each undirected edge appears in both adjacency lists; add
               it once. *)
            if peer > r then Router_graph.add_edge g (offsets.(c) + r) (offsets.(c) + peer) w)
          (Router_graph.neighbors sub r)
      done)
    clusters;
  (* Inter-cluster gateways: several parallel links per cluster pair with
     distinct weights, giving genuine alternative intercontinental
     routes. *)
  for a = 0 to k - 1 do
    for b = a + 1 to k - 1 do
      for _ = 1 to p.gateways_per_pair do
        let ra = offsets.(a) + Rng.int rng clusters.(a).routers in
        let rb = offsets.(b) + Rng.int rng clusters.(b).routers in
        let w = Rng.uniform rng p.inter_base_lo p.inter_base_hi in
        Router_graph.add_edge g ra rb w
      done
    done
  done;
  (g, offsets)

let generate rng p =
  (match validate p with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Generator.generate: " ^ msg));
  let clusters = Array.of_list p.clusters in
  let k = Array.length clusters in
  let backbone, offsets = build_backbone rng p in
  let router_sp = Router_graph.shortest_paths backbone in
  (* Node population: noise first sizing, then cluster shares. *)
  let noise_count = int_of_float (Float.round (float_of_int p.nodes *. p.noise_fraction)) in
  let regular = p.nodes - noise_count in
  let counts =
    Array.map (fun c -> int_of_float (floor (c.fraction *. float_of_int regular))) clusters
  in
  (* Distribute rounding remainder to the largest clusters. *)
  let assigned = Array.fold_left ( + ) 0 counts in
  let remainder = regular - assigned in
  for i = 0 to remainder - 1 do
    counts.(i mod k) <- counts.(i mod k) + 1
  done;
  let cluster_of = Array.make p.nodes (-1) in
  let attach_router = Array.make p.nodes 0 in
  let access = Array.make p.nodes 0. in
  let node = ref 0 in
  Array.iteri
    (fun c count ->
      for _ = 1 to count do
        cluster_of.(!node) <- c;
        attach_router.(!node) <- offsets.(c) + Rng.int rng clusters.(c).routers;
        access.(!node) <-
          Rng.lognormal rng ~mu:clusters.(c).access_mu ~sigma:clusters.(c).access_sigma;
        incr node
      done)
    counts;
  for _ = 1 to noise_count do
    let c = Rng.int rng k in
    cluster_of.(!node) <- -1;
    attach_router.(!node) <- offsets.(c) + Rng.int rng clusters.(c).routers;
    access.(!node) <-
      Float.min p.noise_access_cap
        (Rng.pareto rng ~shape:p.noise_access_shape ~scale:p.noise_access_scale);
    incr node
  done;
  assert (!node = p.nodes);
  (* Shuffle node identities so indices carry no structure. *)
  let perm = Rng.permutation rng p.nodes in
  let cluster_of = Array.map (fun i -> cluster_of.(perm.(i))) (Array.init p.nodes Fun.id) in
  let attach_router = Array.map (fun i -> attach_router.(perm.(i))) (Array.init p.nodes Fun.id) in
  let access = Array.map (fun i -> access.(perm.(i))) (Array.init p.nodes Fun.id) in
  let base =
    Matrix.init p.nodes (fun i j ->
        access.(i) +. router_sp.(attach_router.(i)).(attach_router.(j)) +. access.(j))
  in
  let measured =
    Matrix.init p.nodes (fun i j ->
        if Rng.bernoulli rng p.missing_fraction then nan
        else begin
          let same =
            cluster_of.(i) >= 0 && cluster_of.(i) = cluster_of.(j)
          in
          let inflate_prob =
            if same then p.inflate_prob_intra else p.inflate_prob_inter
          in
          let b = Matrix.get base i j in
          let multiplier =
            if Rng.bernoulli rng inflate_prob then begin
              let drawn =
                1.
                +. Rng.pareto rng ~shape:p.inflation_shape ~scale:p.inflation_scale
                -. p.inflation_scale
              in
              let detour_bound = 1. +. (p.detour_cap_ms /. Float.max 1. b) in
              Float.min (Float.min p.inflation_max drawn) detour_bound
            end
            else 1.
          in
          let jitter = Rng.uniform rng (1. -. p.jitter) (1. +. p.jitter) in
          b *. multiplier *. jitter
        end)
  in
  { matrix = measured; base; cluster_of; params = p }
