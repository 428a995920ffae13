module Rng = Tivaware_util.Rng
module Vec = Tivaware_util.Vec
module Nelder_mead = Tivaware_util.Nelder_mead
module Matrix = Tivaware_delay_space.Matrix

type config = {
  dim : int;
  landmarks : int;
  restarts : int;
}

let default_config = { dim = 5; landmarks = 15; restarts = 3 }

type t = { coords : Vec.t array }

(* Squared relative error, the GNP objective: robust to the delay
   scale and forgiving on long edges. *)
let sq_rel_error predicted measured =
  if measured <= 0. then 0.
  else begin
    let e = (predicted -. measured) /. measured in
    e *. e
  end

(* Objective over all landmark pairs; [x] packs L coordinates of
   dimension [dim]. *)
let landmark_objective d l dim x =
  let coord k = Array.sub x (k * dim) dim in
  let coords = Array.init l coord in
  let acc = ref 0. and count = ref 0 in
  for a = 0 to l - 1 do
    for b = a + 1 to l - 1 do
      let m = d.(a).(b) in
      if not (Float.is_nan m) then begin
        acc := !acc +. sq_rel_error (Vec.dist coords.(a) coords.(b)) m;
        incr count
      end
    done
  done;
  if !count = 0 then 0. else !acc /. float_of_int !count

(* Objective for one host against the fitted landmark coordinates. *)
let host_objective landmark_coords delays x =
  let acc = ref 0. and count = ref 0 in
  Array.iteri
    (fun k m ->
      if not (Float.is_nan m) then begin
        acc := !acc +. sq_rel_error (Vec.dist x landmark_coords.(k)) m;
        incr count
      end)
    delays;
  if !count = 0 then infinity else !acc /. float_of_int !count

let best_of_restarts rng restarts ~init_scale ~dim_total ~f =
  let best = ref None in
  for _ = 1 to restarts do
    let x0 = Array.init dim_total (fun _ -> Rng.uniform rng 0. init_scale) in
    let options =
      { Nelder_mead.default_options with
        Nelder_mead.max_iterations = 200 * dim_total;
        initial_step = init_scale /. 4. }
    in
    let x, v = Nelder_mead.minimize ~options ~f x0 in
    match !best with
    | Some (_, bv) when bv <= v -> ()
    | _ -> best := Some (x, v)
  done;
  match !best with Some r -> r | None -> assert false

let fit ?(config = default_config) rng m =
  let n = Matrix.size m in
  if n < config.landmarks then invalid_arg "Gnp.fit: fewer nodes than landmarks";
  let l = config.landmarks and dim = config.dim in
  let landmark_ids = Rng.sample_indices rng ~n ~k:l in
  let d =
    Array.init l (fun a ->
        Array.init l (fun b ->
            if a = b then 0. else Matrix.get m landmark_ids.(a) landmark_ids.(b)))
  in
  (* Scale the initial simplex to the delay magnitude. *)
  let scale =
    let acc = ref 0. and count = ref 0 in
    Array.iter
      (Array.iter (fun v ->
           if (not (Float.is_nan v)) && v > 0. then begin
             acc := !acc +. v;
             incr count
           end))
      d;
    if !count = 0 then 100. else !acc /. float_of_int !count
  in
  let x, _ =
    best_of_restarts rng config.restarts ~init_scale:scale ~dim_total:(l * dim)
      ~f:(landmark_objective d l dim)
  in
  let landmark_coords = Array.init l (fun k -> Array.sub x (k * dim) dim) in
  let coords = Array.make n (Vec.zero dim) in
  Array.iteri (fun k id -> coords.(id) <- landmark_coords.(k)) landmark_ids;
  let landmark_set = Hashtbl.create l in
  Array.iter (fun id -> Hashtbl.replace landmark_set id ()) landmark_ids;
  for h = 0 to n - 1 do
    if not (Hashtbl.mem landmark_set h) then begin
      let delays = Array.map (fun id -> Matrix.get m h id) landmark_ids in
      let x, _ =
        best_of_restarts rng config.restarts ~init_scale:scale ~dim_total:dim
          ~f:(host_objective landmark_coords delays)
      in
      coords.(h) <- x
    end
  done;
  { coords }

let predicted t i j = Vec.dist t.coords.(i) t.coords.(j)
