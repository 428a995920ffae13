module Rng = Tivaware_util.Rng
module Vec = Tivaware_util.Vec
module Matrix = Tivaware_delay_space.Matrix
module System = Tivaware_vivaldi.System

type t = {
  coords : Vec.t array;
  adjustments : float array;
}

let fit ?(sample_size = 32) rng system =
  let n = System.size system in
  let m = System.matrix system in
  let coords = Array.init n (fun i -> System.coord system i) in
  let adjustments =
    Array.init n (fun x ->
        let k = min sample_size (n - 1) in
        let sample = Rng.sample_indices rng ~n:(n - 1) ~k in
        let acc = ref 0. and count = ref 0 in
        Array.iter
          (fun p ->
            let y = if p >= x then p + 1 else p in
            let d = Matrix.get m x y in
            if not (Float.is_nan d) then begin
              acc := !acc +. (d -. Vec.dist coords.(x) coords.(y));
              incr count
            end)
          sample;
        if !count = 0 then 0. else !acc /. (2. *. float_of_int !count))
  in
  { coords; adjustments }


let predicted t i j =
  Float.max 0.
    (Vec.dist t.coords.(i) t.coords.(j) +. t.adjustments.(i) +. t.adjustments.(j))
