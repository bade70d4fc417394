from treesum.cli import main

raise SystemExit(main())
