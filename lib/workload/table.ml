(** Aligned-table printing for experiment output.

    Each figure prints as a matrix — rows are thread counts (or sizes),
    columns are schemes — in both human-aligned and CSV form, so
    EXPERIMENTS.md can quote either. *)

let pad w s =
  let n = String.length s in
  if n >= w then s else s ^ String.make (w - n) ' '

let print_matrix ~title ~col_header ~cols ~rows ~cell =
  Printf.printf "\n## %s\n" title;
  let w = 11 in
  Printf.printf "%s" (pad w col_header);
  List.iter (fun c -> Printf.printf "%s" (pad w c)) cols;
  print_newline ();
  List.iter
    (fun r ->
      Printf.printf "%s" (pad w (fst r));
      List.iter (fun c -> Printf.printf "%s" (pad w (cell (snd r) c))) cols;
      print_newline ())
    rows;
  (* CSV block for machine consumption. *)
  Printf.printf "csv,%s,%s\n" col_header (String.concat "," cols);
  List.iter
    (fun r ->
      Printf.printf "csv,%s,%s\n" (fst r)
        (String.concat "," (List.map (cell (snd r)) cols)))
    rows;
  flush stdout

let f3 x = Printf.sprintf "%.3f" x
