"""Built-in synthetic fixture: the bank/Scotia ambiguity demo.

Two English sentences share the surfaces "bank" and "Scotia" but resolve
them differently -- a retail-banking context and a maritime-survey context.
Scripted mock backends judge the evidence accordingly, and a rule-based mock
translator renders "bank" from whatever verified knowledge reaches its
prompt, defaulting to the financial sense otherwise. The same module carries
the repeated-term typhoon sentence (consistency failures) and the Vietnamese
coffee-filter sentence (glossary retrieval, live smoke).

``write_demo_workspace`` materializes the whole thing as files (config,
scripts, corpus, index, glossary) so the CLI can run it end to end.
"""

from __future__ import annotations

import json
from pathlib import Path

import yaml

from .retrieval import build_index, save_index

FINANCIAL_SOURCE = (
    "Scotia offers a savings plan with competitive interest, and customers "
    "lined up at the bank to open accounts before the deadline."
)

GEOGRAPHIC_SOURCE = (
    "The survey ship crossed the Scotia Sea before the crew charted the bank "
    "of the frozen channel, and the Scotia team returned to map the bank "
    "again at dawn."
)

GAEMI_SOURCE = (
    "Typhoon Gaemi was a powerful storm that hit East China in 2024. "
    "Gaemi also drenched western Luzon in the Philippines."
)

PHIN_SOURCE = (
    "Even sweeter concoctions await inside Lacaph, a classy new coffeehouse "
    "in District 1, just off Rach Ben Nghe, the slim urban canal that snakes "
    "through the city. Decorated with dark wood paneling and track lighting, "
    "the cafe serves lemonade (80,000 dong) combined with coffee-blossom "
    "honey and a dose of coffee brewed in a traditional Vietnamese phin."
)

DEMO_CORPUS = [
    {
        "id": "d-scotiabank",
        "title": "Scotiabank retail services",
        "text": ("Scotiabank is a financial institution. The bank offers "
                 "savings plans, deposit accounts, and personal loans to "
                 "customers across Canada."),
    },
    {
        "id": "d-scotiasea",
        "title": "Scotia Sea",
        "text": ("The Scotia Sea is a body of water between the Atlantic and "
                 "Southern oceans. Research vessels chart its channels, and a "
                 "bank there means the raised edge of seabed or shoreline "
                 "along the water."),
    },
    {
        "id": "d-phin",
        "title": "Vietnamese phin",
        "text": ("A phin is a traditional Vietnamese drip coffee filter that "
                 "sits on top of a cup and brews slowly."),
    },
]

GLOSSARY_LINES = [
    "phin\t滴漏咖啡壶\ttraditional Vietnamese drip coffee filter",
    "Rach Ben Nghe\t滨义河\tcanal in Ho Chi Minh City",
]

# Distinct markers present in exactly one source sentence each.
FIN_MARKER = "lined up at the bank"
GEO_MARKER = "survey ship crossed"

GEO_CRAT_TRANSLATION = (
    "测量船穿过斯科舍海之后，船员们"
    "绘制了冰封水道的河岸，黎明时"
    "斯科舍队又再次测绘了河岸。"
)
GEO_DIRECT_TRANSLATION = (
    "测量船穿过斯科舍海之后，船员们"
    "绘制了冰封水道的银行，黎明时"
    "斯科舍队又再次测绘了银行。"
)
FIN_CRAT_TRANSLATION = (
    "斯科舍银行提供一项高息储蓄计划，"
    "客户在截止日期前在银行排队开户。"
)
FIN_DIRECT_TRANSLATION = (
    "斯科舍提供一项储蓄计划，客户在"
    "截止日期前到银行排队开户。"
)
GAEMI_TRANSLATION = (
    "台风卡米是2024年袭击中国东部的强"
    "风暴。盖米还给菲律宾吕宋岛西部"
    "带来了暴雨。"
)

RIVERBANK = "河岸"   # riverbank rendering of "bank"
FINANCIAL_BANK = "银行"  # financial rendering of "bank"


def fenced_payload(payload: dict) -> str:
    """A reply string carrying one fenced JSON payload block."""
    return "```json\n" + json.dumps(payload, ensure_ascii=False) + "\n```"


def detector_script() -> dict:
    def both_terms(note: str) -> dict:
        return {"terms": [
            {"surface": "bank", "category": "polyseme",
             "rationale": f"sense depends on the {note} context"},
            {"surface": "Scotia", "category": "proper_noun",
             "rationale": f"ambiguous name in a {note} context"},
        ]}

    return {
        "rules": [
            {"substring": GEO_MARKER, "response": fenced_payload(both_terms("maritime"))},
            {"substring": FIN_MARKER, "response": fenced_payload(both_terms("retail banking"))},
            {"substring": "Typhoon Gaemi", "response": fenced_payload(
                {"terms": [{"surface": "Gaemi", "category": "new_term",
                            "rationale": "recently named storm"}]})},
        ],
        "fallback": {"kind": "text", "text": fenced_payload({"terms": []})},
    }


def extractor_script() -> dict:
    geo = {"triples": [
        {"subject": "Scotia", "relation": "names", "object": "a sea crossed by the survey ship",
         "terms": ["Scotia"]},
        {"subject": "bank", "relation": "lies along", "object": "the frozen channel",
         "terms": ["bank"]},
    ]}
    fin = {"triples": [
        {"subject": "Scotia", "relation": "offers", "object": "savings plan",
         "terms": ["Scotia"]},
        {"subject": "bank", "relation": "serves", "object": "customers opening accounts",
         "terms": ["bank"]},
    ]}
    return {
        "rules": [
            {"substring": GEO_MARKER, "response": fenced_payload(geo)},
            {"substring": FIN_MARKER, "response": fenced_payload(fin)},
        ],
        "fallback": {"kind": "text", "text": fenced_payload({"triples": []})},
    }


def _judge_reply(verdict: str, rendering: str = "", back_translation: str = "",
                 rationale: str = "", facts: list | None = None) -> str:
    return fenced_payload({
        "proposed_rendering": rendering,
        "back_translation": back_translation,
        "verdict": verdict,
        "rationale": rationale,
        "facts": facts or [],
    })


def judge_script() -> dict:
    return {
        "rules": [
            {"substrings": ["Term under review: bank", "Document d-scotiasea", GEO_MARKER],
             "response": _judge_reply(
                 "CORRECT", RIVERBANK, "the raised edge along the water",
                 "back-translation keeps the geographic sense",
                 [["bank", "means", "the raised edge of a waterway"]])},
            {"substrings": ["Term under review: Scotia", "Document d-scotiasea", GEO_MARKER],
             "response": _judge_reply(
                 "CORRECT", "斯科舍", "Scotia, the sea region",
                 "name matches the charted sea",
                 [["Scotia", "names", "the Scotia Sea region"]])},
            {"substrings": ["Term under review: bank", "Document d-scotiabank", GEO_MARKER],
             "response": _judge_reply(
                 "INCORRECT", FINANCIAL_BANK, "a deposit-taking institution",
                 "back-translation turns a shoreline into a financial institution")},
            {"substrings": ["Term under review: Scotia", "Document d-scotiabank", GEO_MARKER],
             "response": _judge_reply(
                 "INCORRECT", "斯科舍银行", "the Scotiabank company",
                 "back-translation introduces a company absent from the context")},
            {"substrings": ["Term under review: bank", "Document d-scotiabank", FIN_MARKER],
             "response": _judge_reply(
                 "CORRECT", FINANCIAL_BANK, "the bank taking deposits",
                 "back-translation keeps the retail-banking sense",
                 [["bank", "means", "a deposit-taking institution"]])},
            {"substrings": ["Term under review: Scotia", "Document d-scotiabank", FIN_MARKER],
             "response": _judge_reply(
                 "CORRECT", "斯科舍银行", "Scotia, the retail bank",
                 "back-translation keeps the institution sense",
                 [["Scotia", "is a", "bank"]])},
            {"substrings": ["Term under review: bank", "Document d-scotiasea", FIN_MARKER],
             "response": _judge_reply(
                 "INCORRECT", RIVERBANK, "the edge of a waterway",
                 "back-translation turns the institution into a shoreline")},
            {"substrings": ["Term under review: Scotia", "Document d-scotiasea", FIN_MARKER],
             "response": _judge_reply(
                 "INCORRECT", "斯科舍海", "the Scotia Sea",
                 "back-translation introduces a sea absent from the context")},
        ],
        "fallback": {"kind": "text", "text": _judge_reply(
            "INCORRECT", rationale="document is irrelevant to the term in context")},
    }


def translator_script() -> dict:
    """Rule-based mock translator: renders "bank" per supplied knowledge,
    defaulting to the financial sense when the prompt carries none."""
    geo_crat = {"translation": GEO_CRAT_TRANSLATION,
                "term_renderings": {"bank": [RIVERBANK, RIVERBANK],
                                    "Scotia": ["斯科舍", "斯科舍"]}}
    fin_crat = {"translation": FIN_CRAT_TRANSLATION,
                "term_renderings": {"bank": [FINANCIAL_BANK],
                                    "Scotia": ["斯科舍银行"]}}
    geo_direct = {"translation": GEO_DIRECT_TRANSLATION, "term_renderings": {}}
    fin_direct = {"translation": FIN_DIRECT_TRANSLATION, "term_renderings": {}}
    gaemi = {"translation": GAEMI_TRANSLATION,
             "term_renderings": {"Gaemi": ["卡米", "盖米"]}}
    return {
        "rules": [
            {"substring": RIVERBANK, "response": fenced_payload(geo_crat)},
            {"substring": FINANCIAL_BANK, "response": fenced_payload(fin_crat)},
            {"substring": GEO_MARKER, "response": fenced_payload(geo_direct)},
            {"substring": FIN_MARKER, "response": fenced_payload(fin_direct)},
            {"substring": "Typhoon Gaemi", "response": fenced_payload(gaemi)},
        ],
        "fallback": {"kind": "text", "text": fenced_payload(
            {"translation": "(no scripted translation for this input)",
             "term_renderings": {}})},
    }


def consis_script() -> dict:
    return {
        "rules": [],
        "fallback": {"kind": "text", "text": fenced_payload(
            {"score": 85.0, "term_findings": []})},
    }


DEMO_CONFIG = {
    "backends": {
        "registrations": [
            {"id": "det", "kind": "mock", "script_path": "scripts/detector.json"},
            {"id": "ext", "kind": "mock", "script_path": "scripts/extractor.json"},
            {"id": "jdg", "kind": "mock", "script_path": "scripts/judge.json"},
            {"id": "trn", "kind": "mock", "script_path": "scripts/translator.json"},
            {"id": "con", "kind": "mock", "script_path": "scripts/consis.json"},
        ],
        "roles": {"detector": "det", "extractor": "ext", "judge": "jdg",
                  "translator": "trn", "consis": "con"},
    },
    "retrieval": {
        "sources": [
            {"kind": "glossary", "path": "glossary.tsv"},
            {"kind": "local_index", "path": "index.json"},
        ],
        "n2": 5,
        "k_per_source": 3,
    },
    "pipeline": {"on_detector_error": "translate_direct", "width": 1},
}


def write_demo_workspace(directory: str | Path) -> dict[str, Path]:
    """Materialize the demo as runnable files; returns the path map."""
    root = Path(directory)
    (root / "scripts").mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    scripts = {
        "detector": detector_script(),
        "extractor": extractor_script(),
        "judge": judge_script(),
        "translator": translator_script(),
        "consis": consis_script(),
    }
    for name, script in scripts.items():
        path = root / "scripts" / f"{name}.json"
        path.write_text(json.dumps(script, ensure_ascii=False, indent=2) + "\n", "utf-8")
        paths[f"script_{name}"] = path

    paths["corpus"] = root / "corpus.jsonl"
    paths["corpus"].write_text(
        "".join(json.dumps(doc, ensure_ascii=False) + "\n" for doc in DEMO_CORPUS), "utf-8")

    paths["index"] = root / "index.json"
    save_index(build_index(DEMO_CORPUS), paths["index"])

    paths["glossary"] = root / "glossary.tsv"
    paths["glossary"].write_text("\n".join(GLOSSARY_LINES) + "\n", "utf-8")

    paths["inputs"] = root / "inputs.jsonl"
    inputs = [{"id": "geo-1", "text": GEOGRAPHIC_SOURCE},
              {"id": "fin-1", "text": FINANCIAL_SOURCE}]
    paths["inputs"].write_text(
        "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in inputs), "utf-8")

    paths["parallel"] = root / "parallel.jsonl"
    references = [
        {"id": "geo-1", "source_text": GEOGRAPHIC_SOURCE,
         "reference_text": GEO_CRAT_TRANSLATION, "source_lang": "en", "target_lang": "zh"},
        {"id": "fin-1", "source_text": FINANCIAL_SOURCE,
         "reference_text": FIN_CRAT_TRANSLATION, "source_lang": "en", "target_lang": "zh"},
    ]
    paths["parallel"].write_text(
        "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in references), "utf-8")

    paths["config"] = root / "config.yaml"
    paths["config"].write_text(yaml.safe_dump(DEMO_CONFIG), "utf-8")
    return paths
