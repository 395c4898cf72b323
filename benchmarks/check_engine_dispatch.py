"""CI lint gate: no string-literal engine dispatch outside the engine
registry, and no loop-memory caches constructed outside the profile
package.

The execution-engine refactor funneled every ``engine == "..."``
comparison through :mod:`repro.runtime.engines` (capability queries and
registry lookups).  The profile-store
refactor did the same for the runtime's cross-run memory: the verdict
cache (``ScheduleCache``) is an internal component of
:mod:`repro.runtime.profile` and may only be constructed there —
everyone else goes through a
:class:`~repro.runtime.profile.LoopProfileStore`.  This check keeps it
that way: it fails when a string-literal engine comparison, or a
direct cache construction, reappears anywhere else under
``src/repro``, so dispatch and loop memory cannot quietly re-scatter
across call sites.

::

    python benchmarks/check_engine_dispatch.py            # lint src/repro
    python benchmarks/check_engine_dispatch.py --root src/repro
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

#: a string literal compared against something called ``engine`` (or an
#: attribute/key ending in it), in either order.
PATTERNS = (
    re.compile(r"""\bengine\s*[=!]=\s*["']"""),
    re.compile(r"""["'][A-Za-z_]+["']\s*[=!]=\s*\w*\.?engine\b"""),
)

#: direct construction of the profile store's internal caches.
CACHE_PATTERNS = (re.compile(r"\bScheduleCache\s*\("),)

#: the DOACROSS recovery tier dispatched by enum/string comparison.  The
#: orchestrator routes strategies through a dict and the recovery engine
#: is resolved by capability (``recovery_engine()``); a scattered
#: ``== Strategy.DOACROSS_RECOVERY`` or ``== "doacross_recovery"``
#: comparison would fork that decision.  Dict keys and ``.value``
#: assignments deliberately do not match — only comparisons do.
RECOVERY_PATTERNS = (
    re.compile(r"(?:[=!]=|\bis(?:\s+not)?)\s+Strategy\.DOACROSS_RECOVERY\b"),
    re.compile(r"\bStrategy\.DOACROSS_RECOVERY\s+(?:[=!]=|is(?:\s+not)?)\s"),
    re.compile(r"""[=!]=\s*["']doacross_recovery["']"""),
    re.compile(r"""["']doacross_recovery["']\s*[=!]="""),
)

#: direct Program construction outside the frontend layer.  The frontend
#: refactor made :mod:`repro.frontend` the only door into the IR: every
#: ``Program`` comes from a registered frontend's ``lift()`` (the dsl
#: parser and the python lifter included).  ``parse(`` matches the
#: bare parser call but not methods (``self.parse(``) or other names
#: (``parse_args(``); workloads keep their stored-source ``parse`` and
#: the dsl package implements the parser itself.
FRONTEND_PATTERNS = (
    re.compile(r"(?<![\w.])parse\s*\("),
    re.compile(r"\bProgramBuilder\s*\("),
)

#: direct construction of engines, worker pools or shadow arenas — the
#: service layer must stay a pure front end over the orchestrator, so
#: every engine comes from the registry and every pool from a
#: :class:`WorkerPoolCache` the orchestrator draws on.
SERVICE_PATTERNS = (
    re.compile(r"\b[A-Z]\w*Engine\s*\("),
    re.compile(r"\bThreadWorkerPool\s*\("),
    re.compile(r"\bThreadShadowArena\s*\("),
    re.compile(r"\brun_parallel_doall\s*\("),
)

#: the one place engine names may be compared/declared.
ALLOWED = pathlib.PurePosixPath("repro/runtime/engines")

#: the one package the schedule cache may be constructed in.
CACHE_ALLOWED = pathlib.PurePosixPath("repro/runtime/profile")

#: the package held to the stricter no-direct-construction rule.
SERVICE_CHECKED = pathlib.PurePosixPath("repro/service")

#: the only places Program construction (parse/ProgramBuilder) may live:
#: the frontend layer itself, the dsl package that implements it, and
#: the workloads package (whose Workload.program() re-parses stored
#: mini-Fortran source).
FRONTEND_ALLOWED = (
    pathlib.PurePosixPath("repro/frontend"),
    pathlib.PurePosixPath("repro/dsl"),
    pathlib.PurePosixPath("repro/workloads"),
)


def lint(root: pathlib.Path) -> list[str]:
    """All offending ``path:line: text`` hits under ``root``."""
    hits: list[str] = []
    for path in sorted(root.rglob("*.py")):
        relative = pathlib.PurePosixPath("repro") / path.relative_to(root)
        check_engine = ALLOWED not in relative.parents
        check_cache = CACHE_ALLOWED not in relative.parents
        check_service = SERVICE_CHECKED in relative.parents
        check_frontend = not any(
            allowed in relative.parents for allowed in FRONTEND_ALLOWED
        )
        if not (
            check_engine or check_cache
            or check_service or check_frontend
        ):
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            engine_hit = check_engine and any(
                pattern.search(line)
                for pattern in PATTERNS + RECOVERY_PATTERNS
            )
            cache_hit = check_cache and any(
                pattern.search(line) for pattern in CACHE_PATTERNS
            )
            service_hit = check_service and any(
                pattern.search(line) for pattern in SERVICE_PATTERNS
            )
            frontend_hit = check_frontend and any(
                pattern.search(line) for pattern in FRONTEND_PATTERNS
            )
            if (
                engine_hit or cache_hit
                or service_hit or frontend_hit
            ):
                hits.append(f"{path}:{lineno}: {line.strip()}")
    return hits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail on string-literal engine comparisons outside "
        "repro/runtime/engines, direct cache construction outside "
        "repro/runtime/profile and the other dispatch rules below."
    )
    parser.add_argument(
        "--root", type=pathlib.Path, default=pathlib.Path("src/repro"),
        help="package directory to lint (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    if not args.root.is_dir():
        print(f"error: no such directory {args.root}", file=sys.stderr)
        return 2

    hits = lint(args.root)
    if hits:
        print(
            f"{len(hits)} violation(s): string-literal engine "
            f"comparisons belong in the registry (use "
            f"repro.runtime.engines capability queries), "
            f"Strategy.DOACROSS_RECOVERY and "
            f"'doacross_recovery' may not be compared against outside "
            f"repro/runtime/engines (route through the orchestrator's "
            f"strategy table and recovery_engine()), "
            f"ScheduleCache may only "
            f"be constructed inside repro/runtime/profile (go through "
            f"LoopProfileStore), repro/service may not construct "
            f"engines, pools or arenas directly, and Program "
            f"construction (parse/ProgramBuilder) belongs behind the "
            f"frontend registry (repro/frontend; repro/dsl and "
            f"repro/workloads excepted):",
            file=sys.stderr,
        )
        for hit in hits:
            print(f"  {hit}", file=sys.stderr)
        return 1
    print(
        "engine dispatch and profile-cache construction clean: "
        "no violations outside the registries"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
