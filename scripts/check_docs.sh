#!/usr/bin/env bash
# Docs-consistency check: every repo path referenced by the architecture
# docs (and the README's layout/docs links) must still exist, and every
# backticked C++ identifier they name must still appear in the code, so
# docs/PAPER_MAP.md cannot silently rot as files and functions move.  Run from anywhere;
# exits non-zero listing each dangling reference (as GitHub error
# annotations when running in Actions).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
docs=(docs/ARCHITECTURE.md docs/PAPER_MAP.md README.md)

fail=0
for doc in "${docs[@]}"; do
  if [[ ! -f "${repo_root}/${doc}" ]]; then
    echo "::error file=${doc}::missing documentation file ${doc}"
    fail=1
    continue
  fi
  # Path-like tokens: a known top-level directory, a slash, then a plain
  # file/directory path.  Trailing punctuation from prose is stripped, and
  # the lookbehind rejects substrings of longer paths (e.g. the
  # bench/tabd_micro inside a ./out/bench/... build path).
  # `|| true`: a doc with zero path references is fine (grep exits 1 on no
  # match, which pipefail would otherwise turn into a silent abort).
  refs="$(grep -oP '(?<![\w/.-])(src|tests|bench|examples|scripts|cmake|docs|workload)/[A-Za-z0-9_./*-]*[A-Za-z0-9_/*-]' \
            "${repo_root}/${doc}" | sort -u || true)"
  while IFS= read -r ref; do
    [[ -z "${ref}" ]] && continue
    if [[ "${ref}" == *'*'* ]]; then
      # Glob reference (e.g. bench/fig*): require at least one match.
      if ! compgen -G "${repo_root}/${ref}" > /dev/null; then
        echo "::error file=${doc}::${doc} references '${ref}', which matches nothing"
        fail=1
      fi
      continue
    fi
    if [[ ! -e "${repo_root}/${ref}" ]]; then
      echo "::error file=${doc}::${doc} references '${ref}', which does not exist"
      fail=1
    fi
  done <<< "${refs}"
done

# Backticked C++ identifiers: a `name` that contains `::` or `_`, or ends in
# `()`, must still appear in the code or the build files, so a doc cannot
# keep naming a deleted function.  The last `::` component is searched as a whole word (a member
# is usually defined or called without its class prefix).
code=()
for path in src tests bench tools examples e2ebench scripts cmake \
            CMakeLists.txt CMakePresets.json; do
  [[ -e "${repo_root}/${path}" ]] && code+=("${repo_root}/${path}")
done
identifiers=0
for doc in "${docs[@]}"; do
  [[ -f "${repo_root}/${doc}" ]] || continue
  names="$(grep -oP '`\K[A-Za-z_~][A-Za-z0-9_]*(::[A-Za-z_~][A-Za-z0-9_]*)*(\(\))?(?=`)' \
             "${repo_root}/${doc}" | sort -u || true)"
  while IFS= read -r name; do
    [[ -z "${name}" ]] && continue
    [[ "${name}" == *::* || "${name}" == *_* || "${name}" == *'()' ]] || continue
    identifiers=$((identifiers + 1))
    word="${name%'()'}"
    word="${word##*::}"
    if ! grep -rqwF -- "${word}" "${code[@]}"; then
      echo "::error file=${doc}::${doc} names \`${name}\`, which no longer appears in the code"
      fail=1
    fi
  done <<< "${names}"
done

if [[ "${fail}" -ne 0 ]]; then
  echo "docs-consistency check FAILED: fix the dangling references above" >&2
  exit 1
fi
echo "docs-consistency check passed (${docs[*]}; ${identifiers} code identifiers)"
