module Rng = Tivaware_util.Rng
module Vec = Tivaware_util.Vec
module Linalg = Tivaware_util.Linalg
module Matrix = Tivaware_delay_space.Matrix

type config = {
  dim : int;
  landmarks : int;
  scale_sample : int;
}

let default_config = { dim = 5; landmarks = 20; scale_sample = 2000 }

type t = {
  coords : Vec.t array;
  scale : float;
}

let fit ?(config = default_config) rng m =
  let n = Matrix.size m in
  if n < config.landmarks then
    invalid_arg "Virtual_landmarks.fit: fewer nodes than landmarks";
  let l = config.landmarks in
  let landmark_ids = Rng.sample_indices rng ~n ~k:l in
  (* Lipschitz vectors, with per-landmark mean imputation for missing
     measurements. *)
  let raw =
    Array.init n (fun node ->
        Array.map (fun lm -> if node = lm then 0. else Matrix.get m node lm) landmark_ids)
  in
  let landmark_mean =
    Array.init l (fun k ->
        let acc = ref 0. and count = ref 0 in
        Array.iter
          (fun v ->
            if not (Float.is_nan v.(k)) then begin
              acc := !acc +. v.(k);
              incr count
            end)
          raw;
        if !count = 0 then 0. else !acc /. float_of_int !count)
  in
  let lipschitz =
    Array.map
      (Array.mapi (fun k v -> if Float.is_nan v then landmark_mean.(k) else v))
      raw
  in
  (* PCA: covariance of mean-centered vectors, top-dim eigenvectors. *)
  let mean =
    Array.init l (fun k ->
        Array.fold_left (fun acc v -> acc +. v.(k)) 0. lipschitz /. float_of_int n)
  in
  let centered = Array.map (fun v -> Array.mapi (fun k x -> x -. mean.(k)) v) lipschitz in
  let cov =
    Array.init l (fun a ->
        Array.init l (fun b ->
            let acc = ref 0. in
            Array.iter (fun v -> acc := !acc +. (v.(a) *. v.(b))) centered;
            !acc /. float_of_int n))
  in
  let eigenpairs = Linalg.symmetric_top_eigenpairs cov ~k:config.dim in
  let components = Array.of_list (List.map snd eigenpairs) in
  let project v = Array.map (fun comp -> Vec.dot v comp) components in
  let coords = Array.map project centered in
  (* Fit the ms-per-unit scale on sampled measured pairs:
     alpha = sum(d * e) / sum(e^2). *)
  let num = ref 0. and den = ref 0. in
  let samples = max 1 config.scale_sample in
  for _ = 1 to samples do
    let i = Rng.int rng n and j = Rng.int rng n in
    if i <> j && Matrix.known m i j then begin
      let e = Vec.dist coords.(i) coords.(j) in
      let d = Matrix.get m i j in
      num := !num +. (d *. e);
      den := !den +. (e *. e)
    end
  done;
  let scale = if !den < 1e-12 then 1. else !num /. !den in
  { coords; scale }

let predicted t i j = t.scale *. Vec.dist t.coords.(i) t.coords.(j)
