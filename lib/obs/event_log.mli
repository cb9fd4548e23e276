(** Structured event sink with a stable export schema.

    An event log is an engine observer that flattens {!Gcs_sim.Engine}
    observations into unboxed columns at record time and defers all
    formatting (and reconstruction) to export time, so recording neither
    allocates nor retains heap values the GC has to trace. Two storage
    modes:

    - unbounded (default): every event is retained;
    - ring: [~capacity] keeps only the most recent entries in bounded
      memory.

    Because observers never mutate algorithm state or consume algorithm
    randomness, attaching a log does not perturb the simulation, and the
    exported bytes are identical regardless of how runs are scheduled
    across domains. *)

type format = Jsonl | Csv

type entry = { seq : int; time : float; obs : Gcs_sim.Engine.observation }
(** [seq] numbers events from 0 in observation order; it survives ring
    eviction, so gaps at the front reveal how much was discarded. *)

type t

val create : ?capacity:int -> ?format_:format -> unit -> t
(** [format_] defaults to [Jsonl]. [capacity] must be positive and selects
    the ring mode. *)

val attach : t -> 'msg Gcs_sim.Engine.t -> unit
(** Register as one of the engine's observer sinks. *)

val record : t -> float -> Gcs_sim.Engine.observation -> unit
(** Record one observation directly (what [attach] wires up). *)

val format : t -> format

val recorded : t -> int
(** Total events seen, including any evicted from a ring. *)

val retained : t -> int
(** Events currently held. *)

val iter : t -> (entry -> unit) -> unit
(** Visit the retained entries in chronological order, straight from the
    columns: a grown log, a wrapped ring and escape-path ids alike. *)

val entries : t -> entry list
(** Retained entries in chronological order, as a list. *)

(** {1 Export}

    The JSONL schema is one flat object per line with fields in a fixed
    order: [{"run":R,]
    [{"seq":N,"t":T,"ev":"tag",...}] where the per-kind fields follow the
    tag and ["run"] is present only when the [?run] argument is given.
    Floats are printed with ["%.17g"] so they round-trip exactly; the
    output is therefore byte-identical across processes and [--jobs]
    values.

    Every export encodes through one direct encoder: literal keys, floats
    appended by {!Gcs_util.Table.add_17g} (Printf's ["%.17g"] bytes), and
    within one pass the previous line's time text when the time has the
    same bits. A whole-log export streams: it encodes each entry into one
    reused buffer and never builds an entry or line list, so its memory is
    the recorded columns. *)

val encode_line : ?run:int -> format -> entry -> string
(** Format one entry (no trailing newline). *)

val entry_to_string : float -> Gcs_sim.Engine.observation -> string
(** The human-readable one-line form of an observation at a time, e.g.
    ["  125.4235  deliver  -> 6 (port 0)"]: the time in a 10-wide [%.4f]
    field, then the kind and its fields. This is what [gcs-cli trace]
    prints for its tail and what a monitor violation records as its
    [context] (and so what [.repro] files store); unlike {!encode_line}
    it rounds, so it is for people, not for parsing back. *)

val csv_header : ?run:bool -> unit -> string list
(** Fixed CSV column set covering every event kind; [~run:true] prepends
    a [run] column. *)

val iter_lines : ?run:int -> t -> (Buffer.t -> unit) -> unit
(** [iter_lines ?run t f] calls [f] with each retained entry's line (no
    trailing newline), in order, in the log's format. The buffer is reused
    for the next line, so [f] must not keep it. *)

val to_lines : ?run:int -> t -> string list
val to_string : ?run:int -> t -> string

val output : ?run:int -> t -> out_channel -> unit
(** Stream the retained entries' lines, each ending in a newline, to a
    channel: no header row. *)

val write : ?run:int -> t -> path:string -> unit
(** Write retained entries to [path]; CSV output starts with a header
    row, JSONL does not. *)

(** {1 Parsing and schema validation} *)

type parsed = { run : int option; entry : entry }

val parse_line : string -> (parsed, string) result
(** Parse one JSONL line, rejecting unknown tags, missing fields, extra
    fields, and malformed values, non-finite floats included (JSON has no
    [inf] or [nan]: ["t is not a finite number: inf"]). It scans the line
    in place: keys are matched where they lie and plain decimal integers
    are read there. *)

val validate_line : string -> (parsed, string) result
(** [parse_line] plus a canonical-form check: re-encoding the parsed
    entry must reproduce the input bytes exactly. This is what
    [gcs-cli trace --check-schema] runs on every line of a recorded log.
    Each domain parses into and re-encodes through one scratch of its
    own, so a line costs only its parsed values and its re-encoded
    text. *)

val iter_checked_lines :
  ?run:int -> t -> (string -> (parsed, string) result -> unit) -> unit
(** [iter_checked_lines ?run t f] calls [f line verdict] with each line
    [iter_lines] gives, as a string, and the verdict [validate_line line]
    gives it, message included. It gets there with one parse per line: a
    line is its entry's encoding, so when the parse equals that entry
    (floats by bits, the same run tag) its re-encoding is the line itself.
    Any other parse, or a parse error, is decided by [validate_line]. This
    is what [gcs-cli trace --check-schema] runs on a simulated log. *)
