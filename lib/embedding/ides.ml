module Rng = Tivaware_util.Rng
module Vec = Tivaware_util.Vec
module Linalg = Tivaware_util.Linalg
module Matrix = Tivaware_delay_space.Matrix

type config = {
  dim : int;
  landmarks : int;
  iterations : int;
  learning_rate : float;
  nonnegative : bool;
}

let default_config =
  { dim = 10; landmarks = 20; iterations = 2000; learning_rate = 1e-4; nonnegative = false }

type t = {
  out_vecs : Vec.t array;
  in_vecs : Vec.t array;
  landmark_rmse : float;
}

(* Gradient descent on ||D - X Yᵀ||² over the landmark matrix.  The
   learning rate is normalized by the delay scale so the same config
   works for spaces measured in tens or hundreds of milliseconds. *)
let factorize rng config d =
  let l = Array.length d in
  let dim = config.dim in
  let scale =
    let acc = ref 0. and count = ref 0 in
    Array.iter
      (Array.iter (fun v ->
           if not (Float.is_nan v) then begin
             acc := !acc +. v;
             incr count
           end))
      d;
    if !count = 0 then 1. else Float.max 1. (!acc /. float_of_int !count)
  in
  let init () =
    Array.init l (fun _ ->
        Array.init dim (fun _ -> Rng.uniform rng 0.1 1.0 *. sqrt (scale /. float_of_int dim)))
  in
  let x = init () and y = init () in
  let rate = config.learning_rate in
  for _ = 1 to config.iterations do
    for i = 0 to l - 1 do
      for j = 0 to l - 1 do
        let dij = d.(i).(j) in
        if i <> j && not (Float.is_nan dij) then begin
          let err = Vec.dot x.(i) y.(j) -. dij in
          let g = rate *. err in
          for k = 0 to dim - 1 do
            let xi = x.(i).(k) and yj = y.(j).(k) in
            x.(i).(k) <- xi -. (g *. yj);
            y.(j).(k) <- yj -. (g *. xi);
            if config.nonnegative then begin
              if x.(i).(k) < 0. then x.(i).(k) <- 0.;
              if y.(j).(k) < 0. then y.(j).(k) <- 0.
            end
          done
        end
      done
    done
  done;
  let rmse =
    let acc = ref 0. and count = ref 0 in
    for i = 0 to l - 1 do
      for j = 0 to l - 1 do
        if i <> j && not (Float.is_nan d.(i).(j)) then begin
          let e = Vec.dot x.(i) y.(j) -. d.(i).(j) in
          acc := !acc +. (e *. e);
          incr count
        end
      done
    done;
    if !count = 0 then 0. else sqrt (!acc /. float_of_int !count)
  in
  (x, y, rmse)

(* Ordinary host vectors by least squares against landmark delays, as in
   the IDES paper: out_h from min ||Y out_h - d(h, .)||, in_h from X. *)
let fit_host config factors_x factors_y delays =
  let rows = ref [] and outs = ref [] in
  Array.iteri
    (fun k d ->
      if not (Float.is_nan d) then begin
        rows := k :: !rows;
        outs := d :: !outs
      end)
    delays;
  let rows = Array.of_list (List.rev !rows) in
  let b = Array.of_list (List.rev !outs) in
  if Array.length rows < config.dim then None
  else begin
    let a_y = Array.map (fun k -> factors_y.(k)) rows in
    let a_x = Array.map (fun k -> factors_x.(k)) rows in
    match (Linalg.lstsq a_y b, Linalg.lstsq a_x b) with
    | out_v, in_v ->
      let clamp v = if config.nonnegative then Array.map (Float.max 0.) v else v in
      Some (clamp out_v, clamp in_v)
    | exception Linalg.Singular -> None
  end

let fit ?(config = default_config) rng m =
  let n = Matrix.size m in
  if n < config.landmarks then
    invalid_arg "Ides.fit: fewer nodes than landmarks";
  let landmark_ids = Rng.sample_indices rng ~n ~k:config.landmarks in
  let l = config.landmarks in
  let d =
    Array.init l (fun a ->
        Array.init l (fun b ->
            if a = b then 0. else Matrix.get m landmark_ids.(a) landmark_ids.(b)))
  in
  let x, y, landmark_rmse = factorize rng config d in
  let out_vecs = Array.make n (Vec.zero config.dim) in
  let in_vecs = Array.make n (Vec.zero config.dim) in
  (* Landmarks keep their factor rows. *)
  Array.iteri
    (fun k id ->
      out_vecs.(id) <- x.(k);
      in_vecs.(id) <- y.(k))
    landmark_ids;
  let landmark_set = Hashtbl.create l in
  Array.iter (fun id -> Hashtbl.replace landmark_set id ()) landmark_ids;
  for h = 0 to n - 1 do
    if not (Hashtbl.mem landmark_set h) then begin
      let delays = Array.map (fun id -> Matrix.get m h id) landmark_ids in
      match fit_host config x y delays with
      | Some (out_v, in_v) ->
        out_vecs.(h) <- out_v;
        in_vecs.(h) <- in_v
      | None -> ()
    end
  done;
  { out_vecs; in_vecs; landmark_rmse }

let predicted t i j =
  let a = Vec.dot t.out_vecs.(i) t.in_vecs.(j)
  and b = Vec.dot t.out_vecs.(j) t.in_vecs.(i) in
  Float.max 0. ((a +. b) /. 2.)

let landmark_rmse t = t.landmark_rmse
