(** Random k-SAT instance generation (deterministic, seeded). *)

val random_3sat : Prng.t -> num_vars:int -> num_clauses:int -> Cnf.t
(** Each clause draws three distinct variables uniformly and flips a fair
    coin per polarity.
    @raise Invalid_argument when [num_vars < 3]. *)

val planted_3sat : Prng.t -> num_vars:int -> num_clauses:int -> Cnf.t * Cnf.assignment
(** Like {!random_3sat} but each clause is re-polarised to be satisfied
    by a hidden planted assignment, so the instance is guaranteed
    satisfiable; the planted assignment is returned. *)
