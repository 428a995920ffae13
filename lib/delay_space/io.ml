let magic = "tivaware-delay-matrix"
let version = "v1"

let to_channel m oc =
  Printf.fprintf oc "%s %s %d\n" magic version (Matrix.size m);
  Matrix.iter_edges m (fun i j v -> Printf.fprintf oc "%d %d %h\n" i j v)

let of_channel ic =
  let fail line msg = failwith (Printf.sprintf "Io.load: line %d: %s" line msg) in
  let header =
    match In_channel.input_line ic with
    | Some l -> l
    | None -> fail 1 "empty file"
  in
  let n =
    match String.split_on_char ' ' (String.trim header) with
    | [ m; v; n ] when m = magic && v = version -> (
      match int_of_string_opt n with
      | Some n when n >= 0 -> n
      | _ -> fail 1 "bad node count")
    | _ -> fail 1 "bad header"
  in
  let matrix = Matrix.create n in
  let rec loop lineno =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
      let line = String.trim line in
      if line <> "" then begin
        match String.split_on_char ' ' line with
        | [ i; j; v ] -> (
          match (int_of_string_opt i, int_of_string_opt j, float_of_string_opt v) with
          | Some i, Some j, Some v when i >= 0 && j >= 0 && i < n && j < n && i <> j ->
            Matrix.set matrix i j v
          | _ -> fail lineno "bad edge entry")
        | _ -> fail lineno "bad edge entry"
      end;
      loop (lineno + 1)
  in
  loop 2;
  matrix

let save m path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel m oc)

let load path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> of_channel ic)

let reconcile symmetrize a b =
  match (Float.is_nan a, Float.is_nan b) with
  | true, true -> nan
  | true, false -> b
  | false, true -> a
  | false, false -> (
    match symmetrize with
    | `Min -> Float.min a b
    | `Max -> Float.max a b
    | `Mean -> (a +. b) /. 2.)

let load_square ?(symmetrize = `Mean) path =
  let parse_cell s =
    match float_of_string_opt s with
    | Some v when v > 0. && Float.is_finite v -> v
    | _ -> nan
  in
  let rows =
    In_channel.with_open_text path (fun ic ->
        let out = ref [] in
        let rec loop () =
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
            let cells =
              String.split_on_char ' ' (String.trim line)
              |> List.concat_map (String.split_on_char '\t')
              |> List.filter (fun s -> s <> "")
            in
            if cells <> [] then
              out := Array.of_list (List.map parse_cell cells) :: !out;
            loop ()
        in
        loop ();
        Array.of_list (List.rev !out))
  in
  let n = Array.length rows in
  Array.iteri
    (fun k row ->
      if Array.length row <> n then
        failwith
          (Printf.sprintf "Io.load_square: row %d has %d cells, expected %d" k
             (Array.length row) n))
    rows;
  Matrix.init n (fun i j -> reconcile symmetrize rows.(i).(j) rows.(j).(i))
