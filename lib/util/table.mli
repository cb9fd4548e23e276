(** Plain-text table rendering for experiment output.

    The benchmark harness prints every reproduced table/figure as an aligned
    ASCII table; this module owns the formatting so all experiments share a
    uniform look. *)

type align = Left | Right

type column = { header : string; align : align }

val column : ?align:align -> string -> column
(** Column description; default alignment is [Right] (numeric data). *)

val render : columns:column list -> rows:string list list -> string
(** Render rows under headers with a separator rule. Rows shorter than the
    column list are padded with empty cells; longer rows are truncated. *)

val print : title:string -> columns:column list -> rows:string list list -> unit
(** [render] preceded by an underlined title, written to stdout. *)

val fmt_float : ?digits:int -> float -> string
(** Fixed-point float formatting used throughout experiment output
    (default 3 digits). Renders [nan] as ["-"]. *)

val add_17g : Buffer.t -> float -> unit
(** Append [Printf.sprintf "%.17g" x]: the same bytes, for every float.
    Finite [x] with [1e-4 <= |x| < 2^53], and [±0], are printed with
    integer arithmetic in OCaml, in about a quarter of the C call's time;
    every other float goes to the runtime's C formatter.
    [%.17g] round-trips every float but NaN through [float_of_string]. *)

val fmt_17g : float -> string
(** [add_17g] into a fresh string: the canonical float text of the event
    log, store keys and outcomes, [.repro] files, series CSV and explorer
    JSON. *)

val fmt_round_trip : float -> string
(** The shortest of ["%.15g"], ["%.16g"] and ["%.17g"] that
    [float_of_string] reads back as the same float, so decimals such as
    [0.5] or [20] print as ["%g"] prints them while every other float
    survives a print and parse exactly. Used wherever text must name a
    float exactly: fault and churn plans, topology parameters. *)
