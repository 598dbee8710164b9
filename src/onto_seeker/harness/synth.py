"""Deterministic synthetic web: an HTML link tree plus ontology documents
with known term sets, and the exact ground truth a crawl/index run should
recover. Everything is a pure function of the SiteSpec (seeded PRNG)."""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

from ..crawler import OutputUnwritable
from ..errors import reason_of
from ..netfetch import Url
from ..rdf.model import (
    Literal,
    OntologySummary,
    OWL_NS,
    RDF_NS,
    RDFS_NS,
    Triple,
    XSD_NS,
)
from .corpus import Corpus, CorpusEntry, PathUnreadable

SITE_FILE = "site.json"
GROUND_TRUTH_FILE = "ground_truth.json"

WORDS = (
    "agent", "organization", "process", "region", "device", "sensor",
    "signal", "channel", "network", "node", "student", "person", "course",
    "engine", "wheel", "market", "price", "order", "item", "policy",
    "metric", "layer", "cluster", "module",
)
VERBS = ("controls", "feeds", "tracks", "binds", "maps", "emits")


class SiteDirUnwritable(OutputUnwritable):
    """The site folder (or a file in it) could not be written."""


@dataclass(frozen=True)
class SiteSpec:
    seed: int
    page_count: int
    ontology_count: int
    max_link_depth: int = 4
    branching: int = 3
    host_count: int = 1
    latency_ms: int = 0

    def __post_init__(self):
        if self.page_count < 1:
            raise ValueError("page_count must be >= 1")
        if not 0 <= self.ontology_count <= self.page_count:
            raise ValueError("ontology_count must be between 0 and page_count")
        if self.max_link_depth < 0:
            raise ValueError("max_link_depth must be >= 0")
        if self.max_link_depth == 0 and self.page_count > 1:
            raise ValueError("page_count > 1 needs max_link_depth >= 1")
        if self.branching < 1:
            raise ValueError("branching must be >= 1")
        if self.host_count < 1:
            raise ValueError("host_count must be >= 1")
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be >= 0")


@dataclass
class GroundTruth:
    root_url: str
    page_depths: dict[str, int]
    reachable_ontology_urls: frozenset[str]
    ontology_depths: dict[str, int]  # min depth of a page linking the ontology
    summaries: dict[str, OntologySummary]

    def ontologies_at_depth(self, depth: int) -> set[str]:
        return {url for url, d in self.ontology_depths.items() if d == depth}

    def ontologies_up_to_depth(self, depth: int) -> set[str]:
        return {url for url, d in self.ontology_depths.items() if d <= depth}


@dataclass
class _Page:
    url: str
    host: str
    path: str
    depth: int
    child_pages: list[tuple[str, str, str]] = field(default_factory=list)  # (url, host, path)
    onto_links: list[tuple[str, str, str]] = field(default_factory=list)  # (url, host, path)


def _camel(words: list[str]) -> str:
    return "".join(w.capitalize() for w in words)


def _lower_camel(words: list[str]) -> str:
    return words[0] + "".join(w.capitalize() for w in words[1:])


def _plan_terms(rng: random.Random) -> tuple[set[str], set[str], set[str], set[str]]:
    classes = set()
    for _ in range(rng.randint(2, 4)):
        name = _camel(rng.sample(WORDS, rng.randint(1, 3)))
        if rng.random() < 0.15:
            name += str(rng.randint(2, 99))
        classes.add(name)
    properties = set()
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            properties.add("has" + _camel(rng.sample(WORDS, rng.randint(1, 2))))
        else:
            properties.add(_lower_camel(rng.sample(WORDS, rng.randint(2, 3))))
    used_predicates = {
        rng.choice(VERBS) + _camel(rng.sample(WORDS, 1)) for _ in range(rng.randint(1, 3))
    }
    axiom_objects = {
        _camel(rng.sample(WORDS, rng.randint(1, 2))) for _ in range(rng.randint(0, 2))
    }
    return classes, properties, used_predicates, axiom_objects


def _build_ontology(
    rng: random.Random, url: str
) -> tuple[list[Triple], OntologySummary, str]:
    """Compose triples realizing a planned summary exactly; returns the
    triples, the expected summary (before byte_size is known), and syntax."""
    ns = url + "#"
    classes, properties, used_predicates, axiom_objects = _plan_terms(rng)
    sorted_classes = sorted(classes)
    sorted_axioms = sorted(axiom_objects)

    triples: list[Triple] = []
    for name in sorted_classes:
        triples.append(Triple(ns + name, RDF_NS + "type", OWL_NS + "Class"))
    for i, obj in enumerate(sorted_axioms):
        triples.append(
            Triple(ns + sorted_classes[i % len(sorted_classes)], RDFS_NS + "subClassOf", ns + obj)
        )
    for i, name in enumerate(sorted(properties)):
        kind = "ObjectProperty" if i % 2 == 0 else "DatatypeProperty"
        triples.append(Triple(ns + name, RDF_NS + "type", OWL_NS + kind))
    instance = 0
    for pred in sorted(used_predicates):
        subject = f"{ns}i{instance}"
        if rng.random() < 0.25:
            subject = f"_:b{instance}"
        triples.append(Triple(subject, ns + pred, f"{ns}i{instance + 1}"))
        instance += 2
    if rng.random() < 0.5:
        triples.append(
            Triple(
                ns + sorted_classes[0],
                RDFS_NS + "label",
                Literal(" ".join(rng.sample(WORDS, 2)), lang="en"),
            )
        )
    if used_predicates and rng.random() < 0.35:
        triples.append(
            Triple(
                f"{ns}i0",
                ns + sorted(used_predicates)[0],
                Literal(str(rng.randint(1, 500)), datatype=XSD_NS + "integer"),
            )
        )
    summary = OntologySummary(
        url=url,
        classes=frozenset(classes),
        properties=frozenset(properties),
        relations=frozenset(used_predicates | axiom_objects),
        triple_count=len(triples),
    )
    syntax = rng.choice(("rdf-xml", "turtle"))
    return triples, summary, syntax


def _split_iri(iri: str, namespaces: dict[str, str]) -> tuple[str, str] | None:
    for prefix, ns in namespaces.items():
        if iri.startswith(ns) and len(iri) > len(ns):
            local = iri[len(ns):]
            if local.replace("_", "a").replace("-", "a").isalnum() and not local[0].isdigit():
                return prefix, local
    return None


def serialize_rdf_xml(triples: list[Triple], namespaces: dict[str, str]) -> bytes:
    """Write triples as rdf:RDF with rdf:Description blocks (stays inside the
    parser's supported subset)."""
    ns_decls = dict(namespaces)
    ns_decls.setdefault("rdf", RDF_NS)
    by_subject: dict[str, list[Triple]] = {}
    for t in triples:
        by_subject.setdefault(t.subject, []).append(t)

    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    decls = " ".join(f'xmlns:{p}={quoteattr(ns)}' for p, ns in sorted(ns_decls.items()))
    lines.append(f"<rdf:RDF {decls}>")
    for subject, group in by_subject.items():
        if subject.startswith("_:"):
            lines.append(f'  <rdf:Description rdf:nodeID={quoteattr(subject[2:])}>')
        else:
            lines.append(f'  <rdf:Description rdf:about={quoteattr(subject)}>')
        for t in group:
            split = _split_iri(t.predicate, ns_decls)
            if split is None:
                raise ValueError(f"predicate {t.predicate} has no declared namespace")
            tag = f"{split[0]}:{split[1]}"
            obj = t.object
            if isinstance(obj, Literal):
                attrs = ""
                if obj.datatype is not None:
                    attrs = f" rdf:datatype={quoteattr(obj.datatype)}"
                elif obj.lang is not None:
                    attrs = f" xml:lang={quoteattr(obj.lang)}"
                lines.append(f"    <{tag}{attrs}>{escape(obj.lexical)}</{tag}>")
            elif obj.startswith("_:"):
                lines.append(f"    <{tag} rdf:nodeID={quoteattr(obj[2:])}/>")
            else:
                lines.append(f"    <{tag} rdf:resource={quoteattr(obj)}/>")
        lines.append("  </rdf:Description>")
    lines.append("</rdf:RDF>")
    return "\n".join(lines).encode("utf-8") + b"\n"


def _turtle_escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


def serialize_turtle(triples: list[Triple], namespaces: dict[str, str]) -> bytes:
    """Write triples as subset Turtle; always starts with @prefix lines so the
    output is sniffable without a media type."""
    ns_decls = dict(namespaces)
    ns_decls.setdefault("rdf", RDF_NS)

    def render(node: str | Literal) -> str:
        if isinstance(node, Literal):
            quoted = f'"{_turtle_escape(node.lexical)}"'
            if node.datatype is not None:
                return f"{quoted}^^{render_iri(node.datatype)}"
            if node.lang is not None:
                return f"{quoted}@{node.lang}"
            return quoted
        if node.startswith("_:"):
            return node
        return render_iri(node)

    def render_iri(iri: str) -> str:
        split = _split_iri(iri, ns_decls)
        if split is not None:
            return f"{split[0]}:{split[1]}"
        return f"<{iri}>"

    lines = [f"@prefix {p}: <{ns}> ." for p, ns in sorted(ns_decls.items())]
    lines.append("")
    by_subject: dict[str, list[Triple]] = {}
    for t in triples:
        by_subject.setdefault(t.subject, []).append(t)
    for subject, group in by_subject.items():
        subject_text = subject if subject.startswith("_:") else render_iri(subject)
        if len(group) == 1:
            t = group[0]
            lines.append(f"{subject_text} {render_iri(t.predicate)} {render(t.object)} .")
            continue
        lines.append(subject_text)
        for i, t in enumerate(group):
            tail = " ;" if i + 1 < len(group) else " ."
            lines.append(f"    {render_iri(t.predicate)} {render(t.object)}{tail}")
    return "\n".join(lines).encode("utf-8") + b"\n"


def _page_html(page: _Page, rng: random.Random, title_no: int) -> bytes:
    refs = [
        path if host == page.host and rng.random() < 0.9 else url
        for url, host, path in page.child_pages + page.onto_links
    ]
    anchors = [f'<li><a href="{escape(r, {chr(34): "&quot;"})}">{escape(r)}</a></li>' for r in refs]
    noise = [
        '<li><a href="#top">top</a></li>',
        '<li><a href="mailto:team@example.org">mail</a></li>',
        '<li><a href="javascript:void(0)">script</a></li>',
        f'<li><a href="/files/data{title_no}.csv">csv</a></li>',
    ]
    if anchors:
        noise.append(anchors[0])  # duplicate link; crawlers must de-dup per page
    extra_head = ""
    if refs and rng.random() < 0.15:
        extra_head = f'<link rel="alternate" href="{escape(refs[0], {chr(34): "&quot;"})}">'
    body = [
        "<html>",
        f"<head><title>Page {title_no}</title>{extra_head}</head>",
        "<body>",
        f"<h1>Page {title_no}</h1>",
        "<ul>",
        *anchors,
        *noise,
        "</ul>",
        "</body>",
        "</html>",
    ]
    return "\n".join(body).encode("utf-8")


def make_synthetic_site(spec: SiteSpec) -> tuple[Corpus, GroundTruth]:
    """Generate the corpus and its exact ground truth from a seeded PRNG."""
    rng = random.Random(spec.seed)
    hosts = [f"host{i}.example" for i in range(spec.host_count)]

    pages: list[_Page] = [_Page(url=f"http://{hosts[0]}/", host=hosts[0], path="/", depth=0)]
    # Page indices in page order: `shallow` holds the pages above max_link_depth,
    # `open_` those of them with fewer than `branching` children. A parent is
    # drawn from `open_`, or from `shallow` once `open_` is empty.
    shallow = [0]
    open_ = [0]
    for i in range(1, spec.page_count):
        parent_no = rng.choice(open_ or shallow)
        parent = pages[parent_no]
        host = rng.choice(hosts)
        path = f"/p{i}.html" if rng.random() < 0.8 else f"/docs/{i}"
        page = _Page(url=f"http://{host}{path}", host=host, path=path, depth=parent.depth + 1)
        parent.child_pages.append((page.url, host, path))
        pages.append(page)
        if len(parent.child_pages) == spec.branching:
            del open_[bisect_left(open_, parent_no)]
        if page.depth < spec.max_link_depth:
            shallow.append(i)
            open_.append(i)

    ontologies: list[tuple[str, list[Triple], OntologySummary, str]] = []
    ontology_depths: dict[str, int] = {}
    for j in range(spec.ontology_count):
        host = rng.choice(hosts)
        path = f"/onto/o{j}" + rng.choice((".owl", ".rdf"))
        url = f"http://{host}{path}"
        linker = pages[0] if j == 0 else rng.choice(pages)
        linker.onto_links.append((url, host, path))
        ontology_depths[url] = linker.depth
        if rng.random() < 0.3:
            extra = rng.choice(pages)
            extra.onto_links.append((url, host, path))
            ontology_depths[url] = min(linker.depth, extra.depth)
        ontologies.append((url, *_build_ontology(rng, url)))

    corpus = Corpus()
    for i, page in enumerate(pages):
        corpus.add(
            page.url,
            CorpusEntry(
                status=200,
                content_type="text/html",
                body=_page_html(page, rng, i),
                latency_ms=spec.latency_ms,
            ),
        )
    summaries: dict[str, OntologySummary] = {}
    for url, triples, summary, syntax in ontologies:
        namespaces = {"o": url + "#", "rdfs": RDFS_NS, "owl": OWL_NS, "xsd": XSD_NS}
        if syntax == "rdf-xml":
            body = serialize_rdf_xml(triples, namespaces)
            proper = "application/rdf+xml"
        else:
            body = serialize_turtle(triples, namespaces)
            proper = "text/turtle"
        roll = rng.random()
        content_type = proper if roll < 0.7 else (None if roll < 0.9 else "text/plain")
        summaries[url] = replace(summary, byte_size=len(body))
        corpus.add(
            url,
            CorpusEntry(
                status=200, content_type=content_type, body=body, latency_ms=spec.latency_ms
            ),
        )

    ground_truth = GroundTruth(
        root_url=pages[0].url,
        page_depths={p.url: p.depth for p in pages},
        reachable_ontology_urls=frozenset(summaries),
        ontology_depths=ontology_depths,
        summaries=summaries,
    )
    return corpus, ground_truth


def _file_for_path(path: str) -> str:
    if path.endswith("/"):
        return path.lstrip("/") + "index.html"
    return path.lstrip("/")


def write_site_dir(
    corpus: Corpus, ground_truth: GroundTruth, spec: SiteSpec, out_dir: str | Path
) -> None:
    """Persist a generated site so the CLI can crawl it from disk.

    Raises SiteDirUnwritable, naming ``out_dir``, when a folder or file cannot
    be written.
    """
    files: dict[str, bytes] = {}  # path relative to out_dir -> bytes
    entries_meta = {}
    for url_key, entry in sorted(corpus.entries.items()):
        url = Url.parse(url_key)
        rel = f"hosts/{url.host}/{_file_for_path(url.path)}"
        files[rel] = entry.body
        entries_meta[url_key] = {
            "file": rel,
            "content_type": entry.content_type,
            "status": entry.status,
        }
    site = {
        "format": 1,
        "root_url": ground_truth.root_url,
        "latency_ms": spec.latency_ms,
        "spec": asdict(spec),
        "entries": entries_meta,
    }
    gt = {
        "root_url": ground_truth.root_url,
        "page_depths": ground_truth.page_depths,
        "reachable_ontology_urls": sorted(ground_truth.reachable_ontology_urls),
        "ontology_depths": ground_truth.ontology_depths,
        "summaries": {
            url: {
                "classes": sorted(s.classes),
                "properties": sorted(s.properties),
                "relations": sorted(s.relations),
                "triple_count": s.triple_count,
                "byte_size": s.byte_size,
            }
            for url, s in sorted(ground_truth.summaries.items())
        },
    }
    for name, data in ((SITE_FILE, site), (GROUND_TRUTH_FILE, gt)):
        files[name] = (json.dumps(data, sort_keys=True, indent=2) + "\n").encode("utf-8")
    out = Path(out_dir)
    try:
        for rel, body in files.items():
            (out / rel).parent.mkdir(parents=True, exist_ok=True)
            (out / rel).write_bytes(body)
    except OSError as exc:
        raise SiteDirUnwritable(f"{out_dir}: {reason_of(exc)}") from exc


def load_site_dir(site_dir: str | Path) -> tuple[Corpus, str]:
    """Load a write_site_dir layout; returns the corpus and the root URL."""
    site_path = Path(site_dir) / SITE_FILE
    corpus = Corpus()
    try:
        site = json.loads(site_path.read_text("utf-8"))
        latency = int(site.get("latency_ms", 0))
        for url_key, meta in site["entries"].items():
            body = (Path(site_dir) / meta["file"]).read_bytes()
            corpus.add(
                url_key,
                CorpusEntry(
                    status=int(meta["status"]),
                    content_type=meta["content_type"],
                    body=body,
                    latency_ms=latency,
                ),
            )
        return corpus, site["root_url"]
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise PathUnreadable(f"{site_path}: cannot load the site: {exc!r}") from exc


def load_ground_truth(site_dir: str | Path) -> GroundTruth:
    data = json.loads((Path(site_dir) / GROUND_TRUTH_FILE).read_text("utf-8"))
    return GroundTruth(
        root_url=data["root_url"],
        page_depths={u: int(d) for u, d in data["page_depths"].items()},
        reachable_ontology_urls=frozenset(data["reachable_ontology_urls"]),
        ontology_depths={u: int(d) for u, d in data["ontology_depths"].items()},
        summaries={
            url: OntologySummary(
                url=url,
                classes=frozenset(s["classes"]),
                properties=frozenset(s["properties"]),
                relations=frozenset(s["relations"]),
                triple_count=int(s["triple_count"]),
                byte_size=int(s["byte_size"]),
            )
            for url, s in data["summaries"].items()
        },
    )
