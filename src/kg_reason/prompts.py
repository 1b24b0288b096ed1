"""Stage prompt templates, rendering, and the sentence a rendered prompt asks about.

Each template is a header, twelve few-shot example blocks, and a task footer
carrying ``<<<<NAME>>>>`` placeholders. Rendering picks the first ``shots``
example blocks in stored order and substitutes every placeholder in a single
pass, so rendering is a pure function of (template, bindings, shots). The
body of each (template, shots) pair is split at its placeholders once, on
first use, and each render fills a copy of those pieces.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Sequence
from dataclasses import dataclass

SEGMENTATION = "segmentation"
RETRIEVAL = "retrieval"
INFERENCE = "inference"

MAX_SHOTS = 12

_PLACEHOLDER = re.compile(r"<<<<([A-Z_]+)>>>>")


@dataclass(frozen=True)
class PromptTemplate:
    stage: str
    header: str
    examples: tuple[str, ...]
    footer: str


def quote_label(label: str) -> str:
    """Single-quote a label, switching to double quotes around apostrophes."""
    if "'" in label:
        return f'"{label}"'
    return f"'{label}'"


def render_entity_set(labels: list[str] | tuple[str, ...]) -> str:
    """Render an entity set, e.g. ``['A' ## "B's"]``."""
    return "[" + " ## ".join(quote_label(x) for x in labels) + "]"


def render_relation_list(labels: list[str] | tuple[str, ...]) -> str:
    """Render a relation list, e.g. ``['club', 'clubs']``."""
    return "[" + ", ".join(quote_label(x) for x in labels) + "]"


def render_triple_list(heads: Sequence[str], relations: Sequence[str], tails: Sequence[str]) -> str:
    """Render triples given as label columns, e.g. ``[['h', 'r', 't'], ...]``; ``[]`` when empty.

    When no column holds an apostrophe, every label is single-quoted and the
    quotes go into the separators. Otherwise each distinct label is quoted
    once by :func:`quote_label`: a hub's label recurs in every one of its
    triples.
    """
    if not heads:
        return "[]"
    columns: Sequence[Sequence[str]] = (heads, relations, tails)
    if any("'" in "".join(column) for column in columns):
        quoted = {x: quote_label(x) for x in set().union(*columns)}
        columns = [list(map(quoted.__getitem__, column)) for column in columns]
        opening, between, closing = "[", ", ", "]"
    else:
        opening, between, closing = "['", "', '", "']"
    # per triple: row separator, head, between, relation, between, tail
    pieces = [between] * (6 * len(heads) + 1)
    pieces[::6] = [f"{closing}, {opening}"] * (len(heads) + 1)
    pieces[0], pieces[-1] = "[" + opening, closing + "]"
    pieces[1::6], pieces[3::6], pieces[5::6] = columns
    return "".join(pieces)


def render_prompt(template: PromptTemplate, bindings: dict[str, str], shots: int) -> str:
    """Assemble the prompt body and substitute placeholders byte-exactly.

    The body of each ``(template, shots)`` pair is split at its placeholders
    once; each call fills the name pieces of a copy in a single pass, so a
    value that looks like a placeholder is inserted verbatim.

    Raises ``ValueError`` when ``shots`` is out of range, a template
    placeholder has no binding (the first one in body order is named), or a
    binding names no placeholder.
    """
    if not 1 <= shots <= len(template.examples):
        raise ValueError(f"shots must be between 1 and {len(template.examples)}, got {shots}")
    pieces, names = _split_body(template, shots)
    if bindings.keys() != names:
        for name in pieces[1::2]:
            if name not in bindings:
                raise ValueError(f"no binding for placeholder {name}")
        raise ValueError(f"bindings name no placeholder: {sorted(set(bindings) - names)}")
    filled = list(pieces)
    filled[1::2] = map(bindings.__getitem__, pieces[1::2])
    return "".join(filled)


def task_sentence(prompt: str) -> str | None:
    """The sentence a rendered prompt asks about (its ``CLAIM`` or ``SENTENCE``
    binding), whatever its text, or None when no template's footer ends it: it
    runs from the first footer opening, which no header or example holds, to
    the last opening of the footer's next line, which no rendered set holds."""
    match = _TASK.search(prompt)
    return match and match[match.lastindex]


def _footer_regex(template: PromptTemplate) -> str:
    """``template``'s footer ending a prompt, with the asked-about sentence as its group."""
    pieces = _PLACEHOLDER.split(template.footer)
    pieces[::2] = map(re.escape, pieces[::2])
    pieces[1::2] = ["(.*)" if name in ("CLAIM", "SENTENCE") else ".*?" for name in pieces[1::2]]
    return "".join(pieces) + r"\Z"


@functools.cache
def _split_body(template: PromptTemplate, shots: int) -> tuple[tuple[str, ...], frozenset[str]]:
    """The body's text and placeholder-name pieces, alternating and starting
    with text, and the set of names."""
    body = template.header + "\n\n".join(template.examples[:shots]) + template.footer
    pieces = tuple(_PLACEHOLDER.split(body))
    return pieces, frozenset(pieces[1::2])


_SEGMENTATION_HEADER = (
    "Please divide the given sentence into several sentences each of which can "
    "be represented by one triplet. The generated sentences should be numbered "
    "and formatted as follows: #(number). (sentence), (entity set). The entity "
    "set for each sentence should contain no more than two entities, with each "
    "entity being used only once in all statements. The '##' symbol should be "
    "used to indicate an entity set. In the generated sentences, there cannot "
    "be more than two entities in the entity set. (i.e., the number of ## must "
    "not be larger than two.)"
    "\n\nExamples)\n"
)

_SEGMENTATION_EXAMPLES = (
    """Sentence A: Ahmad Kadhim Assad's club is Al-Zawra'a SC.
Entity set: ['Ahmad_Kadhim_Assad' ## "Al-Zawra'a_SC"]
--> Divided:
1. Ahmad Kadhim Assad's club is Al-Zawra'a SC., Entity set: ['Ahmad_Kadhim_Assad' ## "Al-Zawra'a_SC"]""",
    """Sentence B: AIDAstella was built by Meyer Werft.
Entity set: ['AIDAstella' ## 'Meyer_Werft']
--> Divided:
1. AIDAstella was built by Meyer Werft., Entity set: ['AIDAstella' ## 'Meyer_Werft']""",
    """Sentence C: AIDA Cruise line operated the AIDAstella which was built by Meyer Werft.
Entity set: ['AIDA_Cruises' ## 'AIDAstella' ## 'Meyer_Werft']
--> Divided:
1. AIDA Cruise line operated the AIDAstella., Entity set: ['AIDA_Cruises' ## 'AIDAstella']
2. AIDAstella was built by Meyer Werft., Entity set: ['AIDAstella' ## 'Meyer_Werft']""",
    """Sentence D: Meyer Werft had a parent company.
Entity set: ['Meyer_Werft']
--> Divided:
1. Meyer Werft had a parent company., Entity set: ['Meyer_Werft' ## 'parent company']""",
    """Sentence E: AIDAstella was built by a company in Papenburg.
Entity set: ['AIDAstella' ## 'Papenburg']
--> Divided:
1. AIDAstella was built by a company., Entity set: ['AIDAstella' ## 'company']
2. The company is in Papenburg., Entity set: ['company' ## 'Papenburg']""",
    """Sentence F: AIDAstella was not built by Meyer Werft in Papenburg.
Entity set: ['AIDAstella' ## 'Meyer_Werft' ## 'Papenburg']
--> Divided:
1. AIDAstella was not built by Meyer Werft., Entity set: ['AIDAstella' ## 'Meyer_Werft']
2. Meyer Werft is in Papenburg., Entity set: ['Meyer_Werft' ## 'Papenburg']""",
    """Sentence G: Yes, Agra Airport is located in India where the leader is Narendra Modi.
Entity set: ['Agra_Airport' ## 'India' ## 'Narendra_Modi']
--> Divided:
1. Agra Airport is located in India., Entity set: ['Agra_Airport' ## 'India']
2. The leader of India is Narendra Modi., Entity set: ['India' ## 'Narendra_Modi']""",
    """Sentence H: I wasn't aware that 103 Colmore Row, located in Birmingham, with 23 floors, was completed in 1976.
Entity set: ['103_Colmore_Row' ## 'Birmingham' ## '23' ## '1976']
--> Divided:
1. 103 Colmore Row is located in Birmingham., Entity set: ['103_Colmore_Row' ## 'Birmingham']
2. 103 Colmore Row has 23 floors., Entity set: ['103_Colmore_Row' ## '23']
3. 103 Colmore Row was completed in 1976., Entity set: ['103_Colmore_Row' ## '1976']""",
    """Sentence I: Alfredo Zitarrosa died in a city, Uruguay (which has Raul Fernando Sendic Rodriguez as leader).
Entity set: ['Alfredo_Zitarrosa' ## 'Uruguay' ## 'Raúl_Fernando_Sendic_Rodríguez']
--> Divided:
1. Alfredo Zitarrosa died in a city., Entity set: ['Alfredo_Zitarrosa' ## 'city']
2. The city is in Uruguay., Entity set: ['city' ## 'Uruguay']
3. Uruguay has Raul Fernando Sendic Rodriguez as leader., Entity set: ['Uruguay' ## 'Raúl_Fernando_Sendic_Rodríguez']""",
    """Sentence J: Al-Taqaddum Air Base is located in Fallujah which is not in Iraq.
Entity set: ['Al-Taqaddum_Air_Base' ## 'Fallujah' ## 'Iraq']
--> Divided:
1. Al-Taqaddum Air Base is located in Fallujah., Entity set: ['Al-Taqaddum_Air_Base' ## 'Fallujah']
2. Fallujah is not in Iraq., Entity set: ['Fallujah' ## 'Iraq']""",
    """Sentence K: A country is the location of the Adare Manor, is run by leader Enda Kenny and the natives are Irish people.
Entity set: ['Adare_Manor' ## 'Enda_Kenny' ## 'Irish_people']
--> Divided:
1. A country is the location of the Adare Manor., Entity set: ['country' ## 'Adare_Manor']
2. The country is run by leader Enda Kenny., Entity set: ['country' ## 'Enda_Kenny']
3. The natives of the country are Irish people., Entity set: ['country' ## 'Irish_people']""",
    """Sentence L: An academic journal with code IJPHDE is also Acta Math. Hungar.
Entity set: ["Acta Math. Hungar." ## "IJPHDE"]
--> Divided:
1. An academic journal is with code IJPHDE., Entity set: ['academic journal' ## "IJPHDE"]
2. An academic journal is also Acta Math. Hungar., Entity set: ['academic journal' ## "Acta Math. Hungar."]""",
)

_SEGMENTATION_FOOTER = """\n\n
Your Task)
Sentence: <<<<CLAIM>>>>
Entity set: <<<<ENTITY_SET>>>>
--> Divided:"""

SEGMENTATION_TEMPLATE = PromptTemplate(
    stage=SEGMENTATION,
    header=_SEGMENTATION_HEADER,
    examples=_SEGMENTATION_EXAMPLES,
    footer=_SEGMENTATION_FOOTER,
)


_RETRIEVAL_HEADER = (
    "I will give you a set of words.\n"
    "Find the top <<<<TOP_K>>>> elements from Words set which are most "
    "semantically related to the given sentence.\n"
    "You may select up to <<<<TOP_K>>>> words. If there is nothing that looks "
    "semantically related, pick out any <<<<TOP_K>>>> elements and give them to me."
    "\n\nExamples)\n"
)

_RETRIEVAL_EXAMPLES = (
    """Sentence A: Ahmad Kadhim Assad's club is Al-Zawra'a SC.
Words set: ['club', 'clubs', 'parent', 'spouse', 'birthPlace', 'deathYear', 'leaderName', 'awards', 'award', 'vicepresident', 'vicePresident']
Top 2 Answer: ['club', 'clubs']""",
    """Sentence B: AIDAstella was built by Meyer Werft.
Words set: ['shipBuilder', 'shipOperator', 'location', 'parentCompany', 'owner', 'builder', 'manufacturer']
Top 2 Answer: ['shipBuilder', 'builder']""",
    """Sentence C: AIDA Cruise line operated the AIDAstella.
Words set: ['shipOperator', 'shipBuilder', 'operator', 'location', 'owner']
Top 2 Answer: ['shipOperator', 'operator']""",
    """Sentence D: Meyer Werft had a parent company.
Words set: ['parentCompany', 'subsidiary', 'location', 'foundedBy', 'owner']
Top 2 Answer: ['parentCompany', 'owner']""",
    """Sentence E: The company is in Papenburg.
Words set: ['location', 'locationCity', 'headquarter', 'birthPlace', 'country']
Top 2 Answer: ['location', 'locationCity']""",
    """Sentence F: AIDAstella was not built by Meyer Werft.
Words set: ['shipBuilder', 'builder', 'shipOperator', 'location']
Top 2 Answer: ['shipBuilder', 'builder']""",
    """Sentence G: The leader of India is Narendra Modi.
Words set: ['leader', 'leaderName', 'primeMinister', 'birthPlace', 'capital']
Top 2 Answer: ['leader', 'leaderName']""",
    """Sentence H: 103 Colmore Row was completed in 1976.
Words set: ['completionDate', 'buildingEndDate', 'floorCount', 'location', 'architect']
Top 2 Answer: ['completionDate', 'buildingEndDate']""",
    """Sentence I: Alfredo Zitarrosa died in a city.
Words set: ['deathPlace', 'birthPlace', 'restingPlace', 'deathYear', 'placeOfBurial']
Top 2 Answer: ['deathPlace', 'restingPlace']""",
    """Sentence J: Al-Taqaddum Air Base is located in Fallujah.
Words set: ['city', 'cityServed', 'location', 'country', 'operator']
Top 2 Answer: ['city', 'cityServed']""",
    """Sentence K: The natives of the country are Irish people.
Words set: ['demonym', 'language', 'ethnicGroup', 'leaderName', 'capital']
Top 2 Answer: ['demonym', 'ethnicGroup']""",
    """Sentence L: An academic journal with code IJPHDE is also Acta Math. Hungar.
Words set: ['abbreviation', 'placeOfBirth', 'owner', 'coden', 'almaMater', 'dean', 'coach', 'writer', 'firstAired', 'director', 'formerTeam', 'starring', 'birthPlace']
Top 2 Answer: ['abbreviation', 'coden']""",
)

_RETRIEVAL_FOOTER = """\n\n
Now let's find the top <<<<TOP_K>>>> elements.
Sentence: <<<<SENTENCE>>>>
Words set: <<<<RELATION_SET>>>>
Top <<<<TOP_K>>>> Answer:"""

RETRIEVAL_TEMPLATE = PromptTemplate(
    stage=RETRIEVAL,
    header=_RETRIEVAL_HEADER,
    examples=_RETRIEVAL_EXAMPLES,
    footer=_RETRIEVAL_FOOTER,
)


_VERIFICATION_INFERENCE_HEADER = (
    "You should verify the claim based on the evidence set.\n"
    'Each evidence is in the form of [head, relation, tail] and it means '
    '"head\'s relation is tail.".\n'
    "\n"
    "Verify the claim based on the evidence set. (True means that everything "
    "contained in the claim is supported by the evidence.)\n"
    "\n"
    'Please note that the unit is not important. (e.g. "98400" is also same as 98.4kg)\n'
    "Choose one of {True, False}, and give me the one-sentence evidence."
    "\n\nExamples)\n\n"
)

_VERIFICATION_INFERENCE_EXAMPLES = (
    """Claim A: Ahmad Kadhim Assad's club is Al-Zawra'a SC.
Evidence set: [['Ahamad_Kadhim', 'clubs', "Al-Zawra'a SC"]]
Answer: True, based on the evidence set, Ahmad Kadhim Assad's club is Al-Zawra'a SC.""",
    """Claim B: AIDAstella was built by Meyer Werft.
Evidence set: [['AIDAstella', 'shipBuilder', 'Meyer_Werft']]
Answer: True, based on the evidence set, AIDAstella was built by Meyer Werft.""",
    """Claim C: AIDA Cruise line operated the AIDAstella which was built by Meyer Werft.
Evidence set: [['AIDAstella', 'shipOperator', 'AIDA_Cruises'], ['AIDAstella', 'shipBuilder', 'Meyer_Werft']]
Answer: True, based on the evidence set, AIDA Cruises operated the AIDAstella and Meyer Werft built it.""",
    """Claim D: Meyer Werft had a parent company.
Evidence set: [['Meyer_Werft', 'parentCompany', 'Meyer_Neptun_Group']]
Answer: True, based on the evidence set, Meyer Werft has a parent company called Meyer Neptun Group.""",
    """Claim E: AIDAstella was built by a company in Papenburg.
Evidence set: [['AIDAstella', 'shipBuilder', 'Meyer_Werft'], ['Meyer_Werft', 'location', 'Papenburg']]
Answer: True, based on the evidence set, AIDAstella was built by Meyer Werft which is located in Papenburg.""",
    """Claim F: AIDAstella was not built by Meyer Werft in Papenburg.
Evidence set: [['AIDAstella', 'shipBuilder', 'Meyer_Werft'], ['Meyer_Werft', 'location', 'Papenburg']]
Answer: False, the evidence shows that AIDAstella was built by Meyer Werft in Papenburg.""",
    """Claim G: Yes, Agra Airport is located in India where the leader is Narendra Modi.
Evidence set: [['Agra_Airport', 'location', 'India'], ['India', 'leader', 'Narendra_Modi']]
Answer: True, based on the evidence set, Agra Airport is located in India and the leader of India is Narendra Modi.""",
    """Claim H: I wasn't aware that 103 Colmore Row, located in Birmingham, with 23 floors, was completed in 1976.
Evidence set: [['103_Colmore_Row', 'location', 'Birmingham'], ['103_Colmore_Row', 'floorCount', '23'], ['103_Colmore_Row', 'completionDate', '1976']]
Answer: True, based on the evidence set, 103 Colmore Row is located in Birmingham, has 23 floors and was completed in 1976.""",
    """Claim I: Agra Airport is located in Iraq.
Evidence set: [['Agra_Airport', 'location', 'India']]
Answer: False, the evidence shows that Agra Airport is located in India.""",
    """Claim J: Al-Taqaddum Air Base is located in Fallujah which is not in Iraq.
Evidence set: [['Al-Taqaddum_Air_Base', 'city', 'Fallujah'], ['Fallujah', 'country', 'Iraq']]
Answer: False, the evidence shows that Fallujah is in Iraq.""",
    """Claim K: AIDAstella has a sister ship.
Evidence set: []
Answer: False, there is no evidence about a sister ship.""",
    """Claim L: The place, designed by Huseyin Butuner and Hilmi Guner, is located in a country, where the leader is Paul Nurse.
Evidence set: [["Baku_Turkish_Martyrs'_Memorial", 'designer', 'Hüseyin Bütüner and Hilmi Güner'], ["Baku_Turkish_Martyrs'_Memorial", 'location', 'Azerbaijan']]
Answer: False, there is no evidence for Paul Nurse.""",
)

_VERIFICATION_INFERENCE_FOOTER = """\n\n
Now let's verify the Claim based on the Evidence set.
Claim: <<<<CLAIM>>>>
Evidence set: <<<<EVIDENCE_SET>>>>
Answer:"""

VERIFICATION_INFERENCE_TEMPLATE = PromptTemplate(
    stage=INFERENCE,
    header=_VERIFICATION_INFERENCE_HEADER,
    examples=_VERIFICATION_INFERENCE_EXAMPLES,
    footer=_VERIFICATION_INFERENCE_FOOTER,
)


_QA_INFERENCE_HEADER = (
    "You should answer the question based on the evidence set.\n"
    'Each evidence is in the form of [head, relation, tail] and it means '
    '"head\'s relation is tail.".\n'
    "\n"
    "Answer the question based on the evidence set, with one entity from the "
    "evidence set."
    "\n\nExamples)\n\n"
)

_QA_INFERENCE_EXAMPLES = (
    """Question A: what films does Brigitte Nielsen appear in?
Evidence set: [['Cobra', 'starred_actors', 'Brigitte Nielsen'], ['Red Sonja', 'starred_actors', 'Brigitte Nielsen']]
Answer: Cobra""",
    """Question B: can you name a film directed by Nikolai Müllerschön?
Evidence set: [['The Red Baron', 'directed_by', 'Nikolai Müllerschön']]
Answer: The Red Baron""",
    """Question C: what type of film is Six Shooter?
Evidence set: [['Six Shooter', 'has_genre', 'Short']]
Answer: Short""",
    """Question D: when did the films starred by Deborah Van Valkenburgh release?
Evidence set: [['Mean Guns', 'starred_actors', 'Deborah Van Valkenburgh'], ['Mean Guns', 'release_year', '1997']]
Answer: 1997""",
    """Question E: which films have the same director of The Duellists?
Evidence set: [['The Duellists', 'directed_by', 'Ridley Scott'], ['The Counselor', 'directed_by', 'Ridley Scott']]
Answer: The Counselor""",
    """Question F: what genres are the movies written by Robert Kenner in?
Evidence set: [['Food, Inc.', 'written_by', 'Robert Kenner'], ['Food, Inc.', 'has_genre', 'Documentary']]
Answer: Documentary""",
    """Question G: what are the genres of the movies whose writers also wrote The Lives of a Bengal Lancer?
Evidence set: [['The Lives of a Bengal Lancer', 'written_by', 'John L. Balderston'], ['Frankenstein', 'written_by', 'John L. Balderston'], ['Frankenstein', 'has_genre', 'Horror']]
Answer: Horror""",
    """Question H: when did the movies starred by Seeking Justice actors release?
Evidence set: [['Seeking Justice', 'starred_actors', 'Nicolas Cage'], ['World Trade Center', 'starred_actors', 'Nicolas Cage'], ['World Trade Center', 'release_year', '2006']]
Answer: 2006""",
    """Question I: what types are the movies starred by actors in A Thin Line Between Love and Hate?
Evidence set: [['A Thin Line Between Love and Hate', 'directed_by', 'Martin Lawrence'], ["Big Momma's House", 'starred_actors', 'Martin Lawrence'], ["Big Momma's House", 'has_genre', 'Comedy'], ['A Thin Line Between Love and Hate', 'written_by', 'Martin Lawrence'], ['A Thin Line Between Love and Hate', 'starred_actors', 'Martin Lawrence']]
Answer: Comedy""",
    """Question J: what does Helen Mack star in?
Evidence set: [['The Son of Kong', 'starred_actors', 'Helen Mack']]
Answer: The Son of Kong""",
    """Question K: what is the main language in Karate-Robo Zaborgar?
Evidence set: [['Karate-Robo Zaborgar', 'in_language', 'Japanese']]
Answer: Japanese""",
    """Question L: who is the writer of Boyz n the Hood?
Evidence set: [['Boyz n the Hood', 'written_by', 'John Singleton']]
Answer: John Singleton""",
)

_QA_INFERENCE_FOOTER = """\n\n
Now let's answer the Question based on the Evidence set.
Question: <<<<CLAIM>>>>
Evidence set: <<<<EVIDENCE_SET>>>>
Answer:"""

QA_INFERENCE_TEMPLATE = PromptTemplate(
    stage=INFERENCE,
    header=_QA_INFERENCE_HEADER,
    examples=_QA_INFERENCE_EXAMPLES,
    footer=_QA_INFERENCE_FOOTER,
)


# task_sentence's pattern: the footer of any template, ending the prompt
_TASK = re.compile("|".join(map(_footer_regex, (
    SEGMENTATION_TEMPLATE, RETRIEVAL_TEMPLATE, VERIFICATION_INFERENCE_TEMPLATE, QA_INFERENCE_TEMPLATE
))), re.DOTALL)
