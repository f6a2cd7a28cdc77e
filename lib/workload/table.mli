(** Aligned-table printing for experiment output.

    Each figure prints as a matrix — rows are thread counts (or sizes),
    columns are schemes — in both human-aligned and CSV form, so
    EXPERIMENTS.md can quote either. *)

val pad : int -> string -> string
(** [pad w s] right-pads [s] with spaces to width [w] (unchanged when
    already at least that wide). *)

val print_matrix :
  title:string ->
  col_header:string ->
  cols:string list ->
  rows:(string * 'a) list ->
  cell:('a -> string -> string) ->
  unit
(** One aligned matrix under a [## title] heading, followed by the same
    data as [csv,...] lines for machine consumption.  [cell row col]
    renders one cell from the row payload and the column name. *)

val f3 : float -> string
(** Three-decimal rendering for throughput cells. *)
