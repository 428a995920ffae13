type t = { n : int; cells : float array }

(* Upper-triangular storage: entry (i, j) with i < j lives at
   [i * n - i * (i + 1) / 2 + (j - i - 1)]. *)
let index t i j =
  let i, j = if i < j then (i, j) else (j, i) in
  (i * t.n) - (i * (i + 1) / 2) + (j - i - 1)

let create n =
  assert (n >= 0);
  { n; cells = Array.make (n * (n - 1) / 2) nan }

let size t = t.n

let get t i j =
  assert (i >= 0 && i < t.n && j >= 0 && j < t.n);
  if i = j then 0. else t.cells.(index t i j)

let set t i j v =
  assert (i >= 0 && i < t.n && j >= 0 && j < t.n);
  if i = j then invalid_arg "Matrix.set: diagonal entry";
  t.cells.(index t i j) <- v

let init n f =
  let t = create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      t.cells.(index t i j) <- f i j
    done
  done;
  t

let is_missing t i j = i <> j && Float.is_nan (get t i j)
let known t i j = i <> j && not (Float.is_nan (get t i j))

let copy t = { n = t.n; cells = Array.copy t.cells }

let iter_edges t f =
  for i = 0 to t.n - 1 do
    for j = i + 1 to t.n - 1 do
      let v = t.cells.(index t i j) in
      if not (Float.is_nan v) then f i j v
    done
  done

let map f t =
  let out = copy t in
  iter_edges t (fun i j v -> set out i j (f i j v));
  out

let edge_count t =
  let count = ref 0 in
  iter_edges t (fun _ _ _ -> incr count);
  !count

let edges t =
  let out = ref [] in
  iter_edges t (fun i j v -> out := (i, j, v) :: !out);
  Array.of_list (List.rev !out)

let delays t =
  let out = ref [] in
  iter_edges t (fun _ _ v -> out := v :: !out);
  Array.of_list (List.rev !out)

let neighbors t i =
  let out = ref [] in
  for j = t.n - 1 downto 0 do
    if known t i j then out := (j, get t i j) :: !out
  done;
  !out

let nearest_neighbor t i =
  Tivaware_util.Stats.argmin_index
    (fun j -> if j = i then Float.nan else get t i j)
    t.n

let row t i = Array.init t.n (fun j -> get t i j)
