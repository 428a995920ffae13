exception Singular

let tolerance = 1e-10

let solve a b =
  let n = Array.length a in
  assert (n = Array.length b);
  let m = Array.map Array.copy a in
  let x = Array.copy b in
  (* Forward elimination with partial pivoting. *)
  for col = 0 to n - 1 do
    let pivot_row = ref col in
    for row = col + 1 to n - 1 do
      if abs_float m.(row).(col) > abs_float m.(!pivot_row).(col) then
        pivot_row := row
    done;
    if abs_float m.(!pivot_row).(col) < tolerance then raise Singular;
    if !pivot_row <> col then begin
      let tmp = m.(col) in
      m.(col) <- m.(!pivot_row);
      m.(!pivot_row) <- tmp;
      let tb = x.(col) in
      x.(col) <- x.(!pivot_row);
      x.(!pivot_row) <- tb
    end;
    for row = col + 1 to n - 1 do
      let factor = m.(row).(col) /. m.(col).(col) in
      if factor <> 0. then begin
        for k = col to n - 1 do
          m.(row).(k) <- m.(row).(k) -. (factor *. m.(col).(k))
        done;
        x.(row) <- x.(row) -. (factor *. x.(col))
      end
    done
  done;
  (* Back substitution. *)
  for row = n - 1 downto 0 do
    let acc = ref x.(row) in
    for k = row + 1 to n - 1 do
      acc := !acc -. (m.(row).(k) *. x.(k))
    done;
    x.(row) <- !acc /. m.(row).(row)
  done;
  x

let transpose a =
  let m = Array.length a in
  if m = 0 then [||]
  else begin
    let n = Array.length a.(0) in
    Array.init n (fun j -> Array.init m (fun i -> a.(i).(j)))
  end

let mat_vec a v =
  Array.map
    (fun row ->
      let acc = ref 0. in
      Array.iteri (fun j x -> acc := !acc +. (x *. v.(j))) row;
      !acc)
    a

let mat_mul a b =
  let bt = transpose b in
  Array.map (fun row -> Array.map (fun col -> Vec.dot row col) bt) a

let lstsq a b =
  let m = Array.length a in
  assert (m = Array.length b);
  if m = 0 then raise Singular;
  let n = Array.length a.(0) in
  let at = transpose a in
  let ata = mat_mul at a in
  (* Ridge term keeps near-collinear landmark systems solvable. *)
  for i = 0 to n - 1 do
    ata.(i).(i) <- ata.(i).(i) +. 1e-8
  done;
  let atb = mat_vec at b in
  solve ata atb

let symmetric_top_eigenpairs ?(iterations = 200) c ~k =
  let n = Array.length c in
  assert (n > 0 && Array.length c.(0) = n);
  (* Work on a copy: deflation mutates the matrix. *)
  let c = Array.map Array.copy c in
  let normalize v =
    let norm = sqrt (Vec.dot v v) in
    if norm < 1e-12 then None
    else begin
      for i = 0 to n - 1 do
        v.(i) <- v.(i) /. norm
      done;
      Some v
    end
  in
  (* Deterministic, direction-rich start vector. *)
  let start j = Array.init n (fun i -> 1. /. float_of_int (1 + ((i + j) mod n))) in
  let out = ref [] in
  (try
     for j = 0 to k - 1 do
       let v = ref (start j) in
       (match normalize !v with Some u -> v := u | None -> raise Exit);
       for _ = 1 to iterations do
         let w = mat_vec c !v in
         match normalize w with
         | Some u -> v := u
         | None -> raise Exit
       done;
       let cv = mat_vec c !v in
       let lambda = Vec.dot !v cv in
       if abs_float lambda < 1e-10 then raise Exit;
       out := (lambda, Array.copy !v) :: !out;
       (* Deflate: c <- c - lambda v vT. *)
       for a = 0 to n - 1 do
         for b = 0 to n - 1 do
           c.(a).(b) <- c.(a).(b) -. (lambda *. !v.(a) *. !v.(b))
         done
       done
     done
   with Exit -> ());
  List.rev !out
