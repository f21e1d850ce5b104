#!/usr/bin/env python3
"""Walkthrough: selective answers and don't-know constants on a phone book.

Run from the repository root:

    python3 scripts/phonebook_demo.py
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))  # for a checkout not installed

from prologtheta import (
    SolveConfig,
    desugar_query_vars,
    format_proof,
    format_term,
    load,
    parse_query,
    solve,
)

PHONE = "module phone.\nphone(tom, cs, 4450).\n"

EMP = """\
module emp.
unknown X, Y.          % sue and john share a number; tim's is different
phone(tom, 434433).
phone(pete, 200312).
phone(sue, X).
phone(john, X).
phone(tim, Y).
"""


def show(title, program, query_text, config=SolveConfig(max_solutions=None)):
    print(f"== {title}")
    print(f"?- {query_text}")
    goal = desugar_query_vars(parse_query(query_text))
    session = solve(program, goal, config)
    found = False
    for solution in session:
        found = True
        if solution.answer:
            for name, term in solution.answer:
                print(f"{name} = {format_term(term)}")
        else:
            print("yes.")
        print(format_proof(solution.trace, solution.answer))
    if not found:
        print("incomplete search." if session.incomplete else "no.")
    print()


def main():
    phone = load(PHONE)
    # only the noisy binder's instantiation is reported: the major stays quiet
    show("ask only for the number, not the major", phone,
         "some X : some* Y : phone(tom, X, Y)")
    show("anonymous-variable spelling of the same query", phone,
         "phone(tom, _, Y)")
    show("silent binders report nothing at all", phone,
         "some X : some Y : phone(tom, X, Y)")

    emp = load(EMP)
    print("loaded employee module with don't-know constants:")
    for name, unknown in emp.unknown_table.items():
        print(f"  {name} -> {format_term(unknown)}")
    print()
    show("sue and john share their unknown number", emp,
         "phone(sue, N), phone(john, N)")
    show("sue and tim do not", emp,
         "phone(sue, N), phone(tim, N)")


if __name__ == "__main__":
    main()
