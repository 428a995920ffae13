module Matrix = Tivaware_delay_space.Matrix

type ext = ..

type t = {
  size : int;
  lookup : int -> int -> float;
  backing : Matrix.t option;
  ext : ext option;
}

let of_matrix m =
  { size = Matrix.size m; lookup = Matrix.get m; backing = Some m; ext = None }

let of_fn ?ext ~size f = { size; lookup = f; backing = None; ext }

let size t = t.size
let query t i j = t.lookup i j
let matrix t = t.backing
let ext t = t.ext
