"""One priority-ordered plugin registry, instantiated per plugin family.

:mod:`repro.kernels.registry` (dslash backends) and
:mod:`repro.precond.registry` (preconditioners) are two instances of
:class:`Registry`.  An entry carries ``name``, ``priority``,
``available``/``unavailable_reason``, a frozen ``capabilities`` dataclass
and ``supports(operator)``.  ``"auto"`` resolves to the highest-priority
*available* entry serving the request; a concrete name must exist, be
available and serve it — otherwise the family's error class is raised
carrying the names that *would* work.  The capability matrix reads the
same entries, so a printed matrix cannot drift from what resolution does.
"""

from __future__ import annotations

from dataclasses import fields

#: The resolver wildcard; always a valid selection.
AUTO = "auto"


class Registry:
    """Name -> entry map with priority-ordered ``"auto"`` resolution.

    ``noun``/``title``/``item`` are the family's words in error messages
    (``"kernel"``, ``"kernel backend"``, ``"backend"``); ``error`` is its
    ``ValueError`` subclass taking ``(message, choices=)``.
    ``requirements`` maps each boolean capability flag callers may demand
    (``resolve(..., flag=True)``) to two message fragments: the suffix of
    the nothing-resolves error and why a named entry lacking it is refused.
    """

    def __init__(self, noun, title, item, error, requirements=None):
        self.noun, self.title, self.item = noun, title, item
        self.error = error
        self.requirements = requirements or {}
        self.entries: dict = {}

    def register(self, entry):
        """Register (or replace) an entry under ``entry.name``."""
        if not entry.name or entry.name == AUTO:
            raise ValueError(f"invalid {self.item} name {entry.name!r}")
        self.entries[entry.name] = entry
        return entry

    def get(self, name: str):
        """The registered entry, available or not (KeyError when absent)."""
        return self.entries[name]

    def _ordered(self) -> list:
        """All entries in resolution order (priority desc, then name)."""
        return sorted(
            self.entries.values(), key=lambda e: (-e.priority, e.name)
        )

    def names(self) -> tuple[str, ...]:
        """All registered names, resolution order (priority desc)."""
        return tuple(e.name for e in self._ordered())

    def _unmet(self, entry, required: dict) -> list[str]:
        """The demanded capability flags ``entry`` lacks."""
        return [
            flag for flag, wanted in required.items()
            if wanted and not getattr(entry.capabilities, flag)
        ]

    def available(self, operator: str | None = None, **required):
        """Names of available entries serving ``operator`` and every
        required capability flag, in resolution order."""
        return tuple(
            e.name
            for e in self._ordered()
            if e.available and e.supports(operator)
            and not self._unmet(e, required)
        )

    def choices(self) -> tuple[str, ...]:
        """Valid selections: ``"auto"`` plus every registered name
        (including unavailable ones — selecting those fails with a reason)."""
        return (AUTO,) + self.names()

    def resolve(self, name: str = AUTO, operator: str | None = None,
                **required):
        """Resolve a selection to a live (always available) entry.

        ``operator`` is the family the entry must serve (``"wilson"`` or
        ``"staggered"``; ``None`` skips the check); ``required`` names
        capability flags that must hold.  Raises the registry's error
        class — ``choices`` lists what would have worked — for an unknown
        name, an unavailable entry, or one that cannot serve the request.
        """
        usable = self.available(operator, **required)
        who = f"{self.noun} {name!r}"

        def refuse(problem: str):
            return self.error(problem, choices=(AUTO,) + usable)

        if name == AUTO:
            if usable:
                return self.entries[usable[0]]
            suffix = "".join(
                self.requirements[f][0] for f, on in required.items() if on
            )
            raise refuse(
                f"no available {self.title} supports operator "
                f"{operator!r}{suffix}"
            )
        if name not in self.entries:
            raise refuse(f"unknown {who}")
        entry = self.entries[name]
        if not entry.available:
            raise refuse(
                f"{who} is not available on this host "
                f"({entry.unavailable_reason})"
            )
        if not entry.supports(operator):
            raise refuse(f"{who} does not support operator {operator!r}")
        unmet = self._unmet(entry, required)
        if unmet:
            raise refuse(f"{who} {self.requirements[unmet[0]][1]}")
        return entry

    def capability_matrix(self) -> list[dict]:
        """One row per registered entry, resolution order: identity and
        availability, then one column per capabilities-dataclass field."""
        rows = []
        for e in self._ordered():
            row = {
                "name": e.name,
                "priority": e.priority,
                "available": e.available,
                "unavailable_reason": e.unavailable_reason,
            }
            for f in fields(e.capabilities):
                value = getattr(e.capabilities, f.name)
                if isinstance(value, tuple):
                    value = list(value)
                row[f.name] = value
            rows.append(row)
        return rows

    def availability_note(self) -> str:
        """One line summarizing availability (``--help`` epilog, so
        formatted on every CLI start: an entry whose ``available`` is
        expensive answers through ``availability_hint()`` instead)."""
        def words(e) -> str:
            if hasattr(e, "availability_hint"):
                return e.availability_hint()
            if e.available:
                return e.name
            return f"{e.name} (unavailable: {e.unavailable_reason})"

        return f"{self.title}s: " + ", ".join(map(words, self._ordered()))


__all__ = ["AUTO", "Registry"]
