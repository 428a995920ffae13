type t = { header : string list; mutable rows : string list list }

let create ~header = { header; rows = [] }

let add_row t row = t.rows <- row :: t.rows

let to_string t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell -> if String.length cell > widths.(i) then widths.(i) <- String.length cell)
      row
  in
  List.iter measure all;
  let buf = Buffer.create 256 in
  let render_row row =
    let cells = row @ List.init (ncols - List.length row) (fun _ -> "") in
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (Printf.sprintf "%*s" widths.(i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  render_row t.header;
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_string buf "  ";
      Buffer.add_string buf (String.make w '-'))
    (Array.to_list widths);
  Buffer.add_char buf '\n';
  List.iter render_row rows;
  Buffer.contents buf

let print t = print_string (to_string t)
