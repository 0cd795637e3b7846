(** Text syntax for entangled-query programs.

    A program is a sequence of statements, each ending in a period:

    {v
    -- comments run to end of line
    table Flights(flightId, destination).
    fact Flights(101, Zurich).
    query gwyneth: { R(Chris, x) } R(Gwyneth, x) :- Flights(x, Zurich).
    query chris:   { } R(Chris, y) :- Flights(y, Zurich).
    v}

    Term conventions follow the paper's typography: lowercase identifiers
    are variables, capitalized identifiers and quoted strings are string
    constants, decimal literals are integers, and the reserved words
    [true]/[false] are booleans.  A query body may be empty, written
    [:- .] or by omitting [:-] entirely (the paper's [:- ∅]). *)

open Relational

type statement =
  | Table of string * string list
  | Fact of string * Value.t list
  | Query_stmt of Query.t

type program = statement list

exception Syntax_error of int * string
(** [(line, message)], lines from 1. *)

val parse_program : string -> program

val parse_query : string -> Query.t
(** Parses a single [query] statement (the leading [query] keyword is
    optional here). *)

val load_program : Database.t -> program -> Query.t list
(** Creates tables, inserts facts, returns queries in order.
    @raise Invalid_argument on a fact for an undeclared table or with the
    wrong arity, mirroring {!Database.insert}. *)

val value_to_syntax : Value.t -> string
(** Renders a constant so the parser reads it back as the same constant:
    integers and booleans bare, capitalized identifiers bare, any other
    string single-quoted (in particular lowercase identifiers, which
    would otherwise lex as variables). *)

val query_to_string : Query.t -> string
(** Renders a query back into parsable syntax (modulo variable-name
    conventions: variables must be lowercase for a round trip). *)
