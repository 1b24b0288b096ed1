"""Deterministic oracle behind the benchmark's completion backends.

The oracle reads only the task footer of a rendered prompt (the part after
the few-shot blocks) and answers from the per-query gold data the generator
wrote. A response is a function of the prompt alone, never of call order, so
any number of concurrent queries get the same answers.

* segmentation: replays the generated decomposition;
* retrieval: the gold relation, then offered relations in offered order, up
  to k in total;
* claim inference: ``True`` exactly when every triple of the claim appears,
  linearized, in the evidence set (inverted for negated claims);
* question inference: the first gold answer that appears in the evidence.

It is self-contained (no ``kg_reason`` import), so the loopback stub server
can use it in its own process.
"""

from __future__ import annotations

import json
import re

_SEGMENT_END = "\n--> Divided:"
_RETRIEVAL_MARK = "\nNow let's find the top "
_VERIFY_MARK = "\nNow let's verify the Claim based on the Evidence set.\nClaim: "
_ANSWER_MARK = "\nNow let's answer the Question based on the Evidence set.\nQuestion: "
_QUOTED = re.compile(r"'([^']*)'|\"([^\"]*)\"")


class OracleError(Exception):
    """A prompt the oracle has no gold answer for."""


def quote(label: str) -> str:
    return f'"{label}"' if "'" in label else f"'{label}'"


def linearized(triple) -> str:
    return "[" + ", ".join(quote(x) for x in triple) + "]"


def load_queries(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class Oracle:
    def __init__(self, queries: list[dict]):
        self.segmentation: dict[str, str] = {}
        self.relation: dict[str, str] = {}
        self.claims: dict[str, tuple[list[str], bool]] = {}
        self.answers: dict[str, list[str]] = {}
        for q in queries:
            lines = [
                f"{i}. {s['text']}, Entity set: [" + " ## ".join(quote(e) for e in s["entities"]) + "]"
                for i, s in enumerate(q["subs"], start=1)
            ]
            self.segmentation[q["text"]] = "\n".join(lines)
            for s in q["subs"]:
                self.relation[s["text"]] = s["relation"]
            if q["kind"] == "claim":
                self.claims[q["text"]] = ([linearized(t) for t in q["check"]], q["negated"])
            else:
                self.answers[q["text"]] = [quote(a) for a in q["answers"]]

    def respond(self, prompt: str) -> str:
        if prompt.endswith(_SEGMENT_END):
            footer = prompt[prompt.rfind("\nSentence: ") + 11:]
            return self._lookup(self.segmentation, footer[: footer.index("\nEntity set: ")])
        at = prompt.rfind(_RETRIEVAL_MARK)
        if at >= 0:
            return self._retrieval(prompt[at:])
        at = prompt.rfind(_VERIFY_MARK)
        if at >= 0:
            claim, evidence = self._claim_and_evidence(prompt, at + len(_VERIFY_MARK))
            checks, negated = self._lookup(self.claims, claim)
            holds = all(c in evidence for c in checks)
            if holds != negated:
                return "True, based on the evidence set, the claim holds."
            return "False, the evidence set does not support the claim."
        at = prompt.rfind(_ANSWER_MARK)
        if at >= 0:
            question, evidence = self._claim_and_evidence(prompt, at + len(_ANSWER_MARK))
            for quoted in self._lookup(self.answers, question):
                if quoted in evidence:
                    return quoted[1:-1]
            return "There is no answer in the evidence set."
        raise OracleError(f"unrecognized prompt footer: {prompt[-200:]!r}")

    def _retrieval(self, footer: str) -> str:
        k = int(footer[len(_RETRIEVAL_MARK):].split(" ", 1)[0])
        start = footer.index("\nSentence: ") + 11
        sentence = footer[start: footer.index("\nWords set: ", start)]
        words = footer[footer.index("\nWords set: ") + 12: footer.rindex("\nTop ")]
        gold = self._lookup(self.relation, sentence)
        picked = [gold]
        for a, b in _QUOTED.findall(words):
            if len(picked) == k:
                break
            word = a or b
            if word != gold:
                picked.append(word)
        return "[" + ", ".join(quote(w) for w in picked) + "]"

    @staticmethod
    def _claim_and_evidence(prompt: str, start: int) -> tuple[str, str]:
        mid = prompt.index("\nEvidence set: ", start)
        return prompt[start:mid], prompt[mid + 15:]

    @staticmethod
    def _lookup(table: dict, key: str):
        try:
            return table[key]
        except KeyError:
            raise OracleError(f"no gold entry for {key[:120]!r}") from None


class OracleBackend:
    """In-process completion backend answering from an :class:`Oracle`."""

    def __init__(self, oracle: Oracle):
        self.oracle = oracle

    def complete(self, prompt: str, stage: str) -> str:
        return self.oracle.respond(prompt)
