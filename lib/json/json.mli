(** The one JSON codec in the tree: a value type, a strict parser and a
    printer, with no dependency (the repo deliberately has no JSON
    library).  Server frames, the bench gate, the Obs sinks and the
    bench series dumps all read or write JSON through this module, so
    the grammar and the escape table live in one place. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed).  Never
    raises on any input: malformed bytes, a non-hex or truncated [\u]
    escape, an unpaired surrogate and trailing bytes are all [Error]
    with the byte offset.  A [\u]-escaped surrogate pair decodes to the
    same UTF-8 bytes as the raw character.  A number token that is an
    OCaml [int] becomes [Int], any other number [Float]. *)

val to_string : t -> string
(** Compact rendering, no whitespace.  Floats print with [%.12g]; a
    non-finite float prints as [null] (JSON cannot spell it) and [-0.]
    as [-0.0] (["-0"] would read back as the integer [0]), so
    [to_string] of [parse (to_string v)] is [to_string v] for every
    parsed [v]. *)

val add_string : Buffer.t -> string -> unit
(** [add_string b s] appends [s] as a quoted JSON string literal: the
    double quote, the backslash, newline, tab and carriage return get
    their short escapes, other bytes below [0x20] a [\u00XX] escape,
    every other byte is copied.  Streaming writers that format their
    own numbers (the Obs sinks, the bench series dump) use this
    directly. *)

val mem : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val str_mem : string -> t -> string option
val int_mem : string -> t -> int option

val number : t -> float option
(** [Int] and [Float] as a float; [None] on anything else. *)
