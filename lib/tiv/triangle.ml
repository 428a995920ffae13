module Rng = Tivaware_util.Rng
module Matrix = Tivaware_delay_space.Matrix

type census = {
  triangles : int;
  violating : int;
  fraction : float;
  worst_ratio : float;
}

(* A triangle violates when its longest side exceeds the sum of the other
   two; the triangulation ratio is longest / (sum of the others). *)
let classify a b c =
  let longest = Float.max a (Float.max b c) in
  let sum = a +. b +. c -. longest in
  if longest > sum then Some (longest /. sum) else None

let finish triangles violating worst =
  {
    triangles;
    violating;
    fraction =
      (if triangles = 0 then 0.
       else float_of_int violating /. float_of_int triangles);
    worst_ratio = worst;
  }

let census m =
  let n = Matrix.size m in
  let rows = Array.init n (fun i -> Matrix.row m i) in
  let triangles = ref 0 and violating = ref 0 and worst = ref 1. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let dij = rows.(i).(j) in
      if not (Float.is_nan dij) then
        for k = j + 1 to n - 1 do
          let dik = rows.(i).(k) and djk = rows.(j).(k) in
          if not (Float.is_nan dik || Float.is_nan djk) then begin
            incr triangles;
            match classify dij dik djk with
            | Some ratio ->
              incr violating;
              if ratio > !worst then worst := ratio
            | None -> ()
          end
        done
    done
  done;
  finish !triangles !violating !worst
